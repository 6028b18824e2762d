"""The five-step access flow, capacity sharing, and rating behaviors."""

import pytest

from ctsim import federation, report
from ctsim.crypto import resource_address
from ctsim.fixedpoint import ONE, fp_from
from ctsim.ledger import TxKind
from ctsim.trust import CredLabel, SatLabel

from conftest import base_cfg, drain, four_nodes, make_world, run_cfg


def req_states(world, req):
    return [(e["state"], e) for e in world.events
            if e["event"] == "request_state" and e["req"] == req]


def chain_txs(world, kind):
    return [tx for blk in world.canonical.chain.blocks
            for tx in blk.txs if tx.kind == kind]


def flow_cfg(**overrides):
    actions = [
        {"at_ms": 500, "action": "register_user",
         "user": "wanderer", "home": "alpha"},
        {"at_ms": 1500, "action": "request_access",
         "user": "wanderer", "target": "beta", "resource": "vm-small"},
    ]
    merged = dict(seed=29, duration_ms=10000, actions=actions)
    merged.update(overrides)
    return base_cfg(**merged)


# ---------------------------------------------------------------------------
# Happy path
# ---------------------------------------------------------------------------

def test_grant_walks_all_five_steps():
    world = run_cfg(flow_cfg())
    states = [s for s, _ in req_states(world, "req-1")]
    assert states == ["REQUESTED", "REDIRECTED", "TOKEN_ISSUED", "GRANTED"]

    granted = req_states(world, "req-1")[-1][1]
    token_id = bytes.fromhex(granted["token"])
    drain(world)
    alpha = world.nodes["alpha"]
    beta = world.nodes["beta"]
    token = beta.chain.lookup_token(token_id)
    assert token is not None, "granted without a confirmed token"
    assert token.issuer == alpha.address
    assert token.audience == beta.address
    assert token.pseudonym == world.users["wanderer"].pseudonym
    assert token.resource == resource_address("vm-small")
    assert token.privileges == (b"access",)

    # both ratings follow automatically: credibility from the serving
    # side, satisfaction from the home side
    fb = [e for e in world.events if e["event"] == "feedback_submitted"]
    assert {e["node"] for e in fb} == {"alpha", "beta"}
    assert {e["label"] for e in fb} == {int(CredLabel.GOOD),
                                        int(SatLabel.SATISFIED)}
    pseudo = world.users["wanderer"].pseudonym
    trust = world.canonical.replica.trust
    assert (beta.address, pseudo) in trust.cred
    assert (alpha.address, beta.address) in trust.sat


def test_home_grant_is_local_and_off_chain():
    cfg = flow_cfg()
    cfg["actions"][1]["target"] = "alpha"
    world = run_cfg(cfg)
    states = req_states(world, "req-1")
    assert [s for s, _ in states] == ["REQUESTED", "GRANTED"]
    assert states[-1][1]["local"] is True
    drain(world)
    assert chain_txs(world, TxKind.TOKEN) == []
    assert chain_txs(world, TxKind.FEEDBACK) == []


# ---------------------------------------------------------------------------
# Denials
# ---------------------------------------------------------------------------

def test_unknown_user_denied_immediately():
    cfg = flow_cfg(actions=[{"at_ms": 1500, "action": "request_access",
                             "user": "nobody", "target": "beta",
                             "resource": "vm-small"}])
    world = run_cfg(cfg)
    states = req_states(world, "req-1")
    assert [s for s, _ in states] == ["REQUESTED", "DENIED"]
    assert states[-1][1]["reason"] == "UNKNOWN_USER"


def test_bad_credential_fails_authentication():
    cfg = flow_cfg()
    cfg["actions"][1]["bad_credential"] = True
    world = run_cfg(cfg)
    assert [s for s, _ in req_states(world, "req-1")] \
        == ["REQUESTED", "REDIRECTED", "DENIED"]
    assert req_states(world, "req-1")[-1][1]["reason"] == "AUTH_FAILED"
    assert any(e["event"] == "auth_failed" and e["node"] == "alpha"
               for e in world.events)
    drain(world)
    assert chain_txs(world, TxKind.TOKEN) == []


def test_unconfirmed_token_times_out_across_cut():
    cfg = flow_cfg(
        duration_ms=12000,
        partitions=[{"at_ms": 1000,
                     "groups": [["alpha"], ["beta", "gamma", "delta"]]}])
    world = run_cfg(cfg)
    states = req_states(world, "req-1")
    assert states[-1][0] == "DENIED"
    assert states[-1][1]["reason"] == "TOKEN_TIMEOUT"
    # the auth redirect died at the cut, so no token ever reached beta
    assert any(e["event"] == "partition_drop" for e in world.events)


def test_replayed_token_is_consumed_once():
    cfg = flow_cfg(seed=31, duration_ms=14000)
    nodes = four_nodes()
    nodes[0]["behavior"] = "double_issuer"
    cfg["nodes"] = nodes
    cfg["actions"].append({"at_ms": 3500, "action": "request_access",
                           "user": "wanderer", "target": "beta",
                           "resource": "vm-small"})
    world = run_cfg(cfg)
    first = req_states(world, "req-1")
    second = req_states(world, "req-2")
    assert first[-1][0] == "GRANTED"
    assert second[-1][0] == "DENIED"
    assert second[-1][1]["reason"] == "TOKEN_REUSED"
    drain(world)
    tokens = chain_txs(world, TxKind.TOKEN)
    assert len(tokens) == 1     # the replay never lands a second time
    granted = [e for e in world.events if e["event"] == "request_state"
               and e["state"] == "GRANTED"]
    assert len(granted) == 1


@pytest.mark.parametrize("latency_ms, bad_credential",
                         [(400, False), (400, True), (300, False),
                          (300, True), (299, False), (299, True)])
def test_answer_after_timeout_is_ignored(monkeypatch, latency_ms,
                                         bad_credential):
    # the redirect leaves beta at 1 500 ms and the request times out one
    # 300 ms interval later, at 1 800 ms; at 300 ms a hop the auth_request
    # reaches the home at exactly that deadline
    cfg = flow_cfg(links={"default_latency_ms": latency_ms, "jitter_ms": 0},
                   confirmation_timeout_intervals=1)
    cfg["actions"][1]["bad_credential"] = bad_credential
    built = []
    build = federation.build_token_tx
    monkeypatch.setattr(federation, "build_token_tx",
                        lambda *args: built.append(args) or build(*args))
    world = run_cfg(cfg)
    drain(world)
    states = req_states(world, "req-1")
    arrival = 1500 + latency_ms
    answers = [(e["event"], e["ts"]) for e in world.events
               if e["event"] in ("auth_ok", "auth_failed")]
    tokens = [tx for node in world.nodes.values()
              for blk in node.chain.blocks for tx in blk.txs
              if tx.kind == TxKind.TOKEN]
    issued = []
    if arrival >= 1800:
        # the home refuses at or after the deadline: it checks no
        # credential, builds and signs no token and answers nothing
        assert (answers, built, tokens) == ([], [], [])
    elif bad_credential:
        # its denial reaches beta after the timeout and is ignored
        assert (answers, built, tokens) == ([("auth_failed", arrival)], [], [])
    else:
        # a token issued before the deadline still confirms after it; the
        # timeout has denied the request, so the token is never consumed
        issued = [("TOKEN_ISSUED", arrival)]
        assert (answers, len(built)) == ([("auth_ok", arrival)], 1)
        assert tokens and not world.nodes["beta"].consumed
    assert [(s, e["ts"]) for s, e in states] \
        == [("REQUESTED", 1500), ("REDIRECTED", 1500), *issued,
            ("DENIED", 1800)]
    assert states[-1][1]["reason"] == "TOKEN_TIMEOUT"
    assert not world.nodes["beta"].pending
    _, _, final, _ = report._fold_events(world.events)
    section = report._request_section(final)
    assert (section["by_state"], section["by_reason"]) \
        == ({"DENIED": 1}, {"TOKEN_TIMEOUT": 1})


def test_request_moves_outside_the_table_raise():
    world = make_world(flow_cfg())
    for req_id, moves in (("req-a", ["REQUESTED", "GRANTED", "DENIED"]),
                          ("req-b", ["REQUESTED", "REDIRECTED",
                                     "TOKEN_ISSUED", "TOKEN_ISSUED"])):
        world.requests[req_id] = federation.RequestRecord(
            req_id, "wanderer", "alpha", "beta", "vm-small")
        *legal, forbidden = moves
        for state in legal:
            federation._log_request(world, req_id, state, node="beta")
        with pytest.raises(RuntimeError,
                           match=f"{legal[-1]} -> {forbidden}$"):
            federation._log_request(world, req_id, forbidden, node="beta")
        assert world.requests[req_id].state == legal[-1]
    assert [e["state"] for e in world.events
            if e["event"] == "request_state"] \
        == ["REQUESTED", "GRANTED", "REQUESTED", "REDIRECTED", "TOKEN_ISSUED"]


@pytest.mark.parametrize("at_ms, target, resource, reason",
                         [(3000, "gamma", "vm-small", "AUDIENCE"),
                          (3000, "beta", "archive", "RESOURCE"),
                          (7000, "beta", "vm-small", "EXPIRED")])
def test_token_for_another_grant_is_denied(monkeypatch, at_ms, target,
                                           resource, reason):
    # req-2's token_issued message is rewritten to name req-1's confirmed
    # token, which grants beta the resource vm-small for 3 s
    cfg = flow_cfg()
    cfg["actions"].append({"at_ms": at_ms, "action": "request_access",
                           "user": "wanderer", "target": target,
                           "resource": resource})
    world = make_world(cfg)
    deliver = federation.on_message

    def crafted(world, node, src, payload):
        if payload["kind"] == "token_issued" and payload["req_id"] == "req-2":
            payload = dict(payload,
                           token_id=world.requests["req-1"].token_id)
        deliver(world, node, src, payload)

    monkeypatch.setattr(federation, "on_message", crafted)
    world.run()
    assert req_states(world, "req-1")[-1][0] == "GRANTED"
    state, last = req_states(world, "req-2")[-1]
    assert (state, last["reason"], last["node"]) == ("DENIED", reason, target)


# ---------------------------------------------------------------------------
# Capacity sharing
# ---------------------------------------------------------------------------

def test_iaas_share_borrower_issues_for_lender():
    cfg = base_cfg(seed=37, duration_ms=10000, actions=[
        {"at_ms": 1000, "action": "iaas_share", "borrower": "beta",
         "lender": "gamma", "resource": "gpu-rack"}])
    world = run_cfg(cfg)
    assert any(e["event"] == "iaas_share" and e["node"] == "beta"
               and e["lender"] == "gamma" for e in world.events)
    states = req_states(world, "req-1")
    assert states[-1][0] == "GRANTED"
    drain(world)
    beta, gamma = world.nodes["beta"], world.nodes["gamma"]
    token_id = bytes.fromhex(states[-1][1]["token"])
    token = gamma.chain.lookup_token(token_id)
    assert token.issuer == beta.address
    assert token.audience == gamma.address
    assert token.pseudonym == world.users["iaas:beta"].pseudonym
    reg = [e for e in world.events if e["event"] == "user_registered"]
    assert reg and reg[0]["user"] == "iaas:beta" and reg[0]["node"] == "beta"


# ---------------------------------------------------------------------------
# Rating behaviors
# ---------------------------------------------------------------------------

def test_smearer_drags_scores_down():
    # one rating from a trust-less rater halves the score no matter the
    # label; only after satisfaction ratings give the rater weight does
    # the label direction show, hence two rounds
    second = {"at_ms": 5000, "action": "request_access",
              "user": "wanderer", "target": "beta", "resource": "vm-small"}
    honest_cfg = flow_cfg(duration_ms=12000)
    honest_cfg["actions"].append(dict(second))
    honest = run_cfg(honest_cfg)
    cfg = flow_cfg(duration_ms=12000)
    cfg["actions"].append(dict(second))
    nodes = four_nodes()
    nodes[1]["behavior"] = "smearer"     # beta serves, then trashes everyone
    cfg["nodes"] = nodes
    sour = run_cfg(cfg)
    for w in (honest, sour):
        drain(w)
        assert req_states(w, "req-1")[-1][0] == "GRANTED"
        assert req_states(w, "req-2")[-1][0] == "GRANTED"
    pseudo = honest.users["wanderer"].pseudonym
    honest_cred = honest.canonical.replica.trust.cred_user(pseudo)
    sour_cred = sour.canonical.replica.trust.cred_user(
        sour.users["wanderer"].pseudonym)
    assert sour_cred < honest_cred
    labels = {e["label"] for e in sour.events
              if e["event"] == "feedback_submitted" and e["node"] == "beta"}
    assert labels == {int(CredLabel.VERY_BAD)}


def test_flatterer_pushes_scores_up():
    cfg = flow_cfg()
    nodes = four_nodes()
    nodes[0]["behavior"] = "flatterer"   # alpha rates its own grants top
    cfg["nodes"] = nodes
    world = run_cfg(cfg)
    drain(world)
    labels = [e["label"] for e in world.events
              if e["event"] == "feedback_submitted" and e["node"] == "alpha"]
    assert labels == [int(SatLabel.FULLY_SATISFIED)]
    beta = world.nodes["beta"]
    trust = world.canonical.replica.trust
    assert trust.sat[(world.nodes["alpha"].address, beta.address)] \
        > fp_from("0.4")    # one top rating from satisfaction 0


def test_smearing_home_rates_every_service_lowest():
    cfg = flow_cfg()
    nodes = four_nodes()
    nodes[0]["behavior"] = "smearer"     # alpha trashes its user's service
    cfg["nodes"] = nodes
    world = run_cfg(cfg)
    drain(world)
    labels = [e["label"] for e in world.events
              if e["event"] == "feedback_submitted" and e["node"] == "alpha"]
    assert labels == [int(SatLabel.FULLY_DISSATISFIED)]


def test_pseudonym_survives_second_home():
    cfg = base_cfg(seed=41, duration_ms=10000, actions=[
        {"at_ms": 500, "action": "register_user",
         "user": "wanderer", "home": "alpha"},
        {"at_ms": 800, "action": "register_user",
         "user": "wanderer", "home": "beta"},
        {"at_ms": 1500, "action": "request_access", "user": "wanderer",
         "target": "gamma", "resource": "store", "home": "beta"},
    ])
    world = run_cfg(cfg)
    regs = [e for e in world.events if e["event"] == "user_registered"]
    assert len(regs) == 2
    assert regs[0]["pseudonym"] == regs[1]["pseudonym"]
    info = world.users["wanderer"]
    assert list(info.credentials) == ["alpha", "beta"]
    states = req_states(world, "req-1")
    assert states[-1][0] == "GRANTED"
    drain(world)
    token = world.nodes["gamma"].chain.lookup_token(
        bytes.fromhex(states[-1][1]["token"]))
    assert token.issuer == world.nodes["beta"].address
    assert token.pseudonym == info.pseudonym


def test_reenrolled_user_authenticates_with_the_new_credential():
    cfg = flow_cfg()
    cfg["actions"].insert(1, {"at_ms": 900, "action": "register_user",
                              "user": "wanderer", "home": "alpha"})
    world = run_cfg(cfg)
    assert req_states(world, "req-1")[-1][0] == "GRANTED"
    info = world.users["wanderer"]
    home = world.nodes["alpha"].users[info.pseudonym]
    assert info.credentials == {"alpha": home.credential}


def test_fifth_provider_joins_the_weighting():
    cfg = base_cfg(seed=43, duration_ms=12000, actions=[
        {"at_ms": 2000, "action": "register_csp", "name": "echo",
         "stake": 0.1, "weights": [0.9, 0.1]}])
    world = run_cfg(cfg)
    drain(world)
    trust = world.canonical.replica.trust
    assert len(trust.declared) == 5
    w_sat, w_auth = trust.global_weights()
    # four at (0.5, 0.5) plus one at (0.9, 0.1)
    assert w_sat == (4 * fp_from("0.5") + fp_from("0.9")) // 5
    assert w_auth == (4 * fp_from("0.5") + fp_from("0.1")) // 5


def test_auto_feedback_can_be_disabled():
    world = run_cfg(flow_cfg(auto_feedback=False))
    assert req_states(world, "req-1")[-1][0] == "GRANTED"
    drain(world)
    assert chain_txs(world, TxKind.FEEDBACK) == []
    assert not any(e["event"] == "feedback_submitted" for e in world.events)
    assert all(not n.pending_sat for n in world.nodes.values())


def test_scripted_feedback_paths():
    cfg = flow_cfg(seed=47, duration_ms=14000, auto_feedback=False)
    cfg["actions"] += [
        # before any grant exists: refused outright
        {"at_ms": 600, "action": "feedback", "request": "req-1",
         "by": "foreign", "label": "GOOD"},
        {"at_ms": 9000, "action": "feedback", "request": "req-1",
         "by": "foreign", "label": "MEDIUM"},
        {"at_ms": 10000, "action": "feedback", "request": "req-1",
         "by": "home", "label": "PARTIALLY_SATISFIED"},
        # same rater, same token: the ledger refuses the duplicate
        {"at_ms": 11000, "action": "feedback", "request": "req-1",
         "by": "foreign", "label": "GOOD"},
    ]
    world = run_cfg(cfg)
    failed = [e for e in world.events if e["event"] == "feedback_failed"]
    assert [e["reason"] for e in failed] == ["NOT_GRANTED"]
    dropped = [e for e in world.events if e["event"] == "feedback_dropped"]
    assert [e["reason"] for e in dropped] == ["DUPLICATE_FEEDBACK"]
    drain(world)
    labels = sorted(fb_label(tx) for tx in chain_txs(world, TxKind.FEEDBACK))
    assert labels == [int(CredLabel.MEDIUM), int(SatLabel.PARTIALLY_SATISFIED)]


def fb_label(tx):
    from ctsim.ledger import parse_feedback
    return parse_feedback(tx.payload).label


def test_scripted_feedback_from_a_replica_without_the_token():
    world = run_cfg(flow_cfg(seed=47, duration_ms=8000, auto_feedback=False))
    assert req_states(world, "req-1")[-1][0] == "GRANTED"
    world.nodes["alpha"]._rewind(0)     # the home has not caught up
    federation.scripted_feedback(world, "req-1", "home", "SATISFIED")
    assert world.events[-1] == {"ts": world.now, "event": "feedback_failed",
                                "req": "req-1", "by": "home",
                                "reason": "UNKNOWN_TOKEN"}
