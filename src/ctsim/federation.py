"""Cross-provider identity federation on top of the simulated network.

The access flow, end to end: a user asks a foreign provider for a
resource, the foreign provider redirects authentication to the user's home
provider, the home provider verifies the credential and issues a token
transaction on the chain, the foreign provider watches its replica until
the token is confirmed, then grants and consumes it. Ratings follow:
the serving provider scores the visiting user's credibility, the home
provider scores its user's satisfaction with the service.

Requests live as state machines distributed over nodes and messages;
every transition is logged, so a run's outcomes are reconstructible from
the event log alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .crypto import derive_child_key, resource_address
from .ledger import (
    AccessToken,
    FeedbackData,
    build_feedback_tx,
    build_register_tx,
    build_token_tx,
)
from .trust import CredLabel, SatLabel

# mempool-retry reasons that can clear as the chain grows; anything else
# seen while packing means the transaction is dead
TRANSIENT_REASONS = frozenset({"UNKNOWN_TOKEN", "UNKNOWN_RATER",
                               "UNKNOWN_ISSUER"})

PRIVILEGES = (b"access",)


@dataclass
class HomeUser:
    """Home-side account record for a registered user."""
    pseudonym: bytes
    credential: bytes
    profile: bytes


@dataclass
class ForeignRequest:
    """Foreign-side context for an access request awaiting confirmation."""
    home: str
    resource: bytes
    deadline: int
    token_id: bytes | None = None


@dataclass
class UserInfo:
    """World-level user directory entry: the credential each home holds,
    homes in first-enrolment order."""
    pseudonym: bytes
    credentials: dict[str, bytes]


@dataclass
class RequestRecord:
    """Bookkeeping mirror of a request's lifecycle: ``state`` is the last
    one logged (None before the first), and so the request's outcome."""
    req_id: str
    user: str
    home: str | None
    target: str
    resource: str
    state: str | None = None
    token_id: bytes | None = None


# the one set of moves _log_request allows: each state (None before the
# first) to the states after it; GRANTED and DENIED are terminal
TRANSITIONS = {None: frozenset({"REQUESTED"}),
               "REQUESTED": frozenset({"REDIRECTED", "GRANTED", "DENIED"}),
               "REDIRECTED": frozenset({"TOKEN_ISSUED", "DENIED"}),
               "TOKEN_ISSUED": frozenset({"GRANTED", "DENIED"})}


def _timeout_ms(world) -> int:
    return (world.cfg.confirmation_timeout_intervals
            * world.cfg.consensus.block_interval_ms)


def _ttl_ms(world) -> int:
    return world.cfg.token_ttl_intervals * world.cfg.consensus.block_interval_ms


def _log_request(world, req_id: str, state: str, **fields) -> None:
    rec = world.requests[req_id]
    if state not in TRANSITIONS.get(rec.state, ()):
        raise RuntimeError(f"request {req_id}: {rec.state} -> {state}")
    rec.state = state
    world.log_event("request_state", req=req_id, state=state, user=rec.user,
                    target=rec.target, resource=rec.resource, **fields)


# ===========================================================================
# Scenario actions
# ===========================================================================

def run_action(world, action) -> None:
    fields = action.fields
    if action.kind == "register_csp":
        register_csp(world, fields["spec"])
    elif action.kind == "register_user":
        register_user(world, fields["home"], fields["user"])
    elif action.kind == "request_access":
        request_access(world, action.req_id, fields["user"], fields["target"],
                       fields["resource"], fields.get("home"),
                       fields.get("bad_credential", False))
    elif action.kind == "iaas_share":
        iaas_share(world, action.req_id, fields["borrower"], fields["lender"],
                   fields["resource"])
    else:   # "feedback"; the loader rejects unknown kinds
        scripted_feedback(world, fields["request"], fields["by"],
                          fields["label"])


def register_csp(world, spec) -> None:
    """Bring a provider online mid-run; it announces itself on-chain."""
    key = world._provider_key(spec)
    node = world._add_node(spec, key)
    world.broadcast_tx(node, build_register_tx(key, spec.register_data()))


def register_user(world, home_name: str, username: str) -> None:
    """Enroll a user at a home provider; pseudonym survives extra homes."""
    home = world.nodes[home_name]
    child = derive_child_key(home.key, home.child_index)
    home.child_index += 1
    credential = home.rng.take(16)
    info = world.users.get(username)
    if info is None:
        info = world.users[username] = UserInfo(child.address, {})
    profile = json.dumps({"user": username, "home": home_name},
                         sort_keys=True).encode()
    home.users[info.pseudonym] = HomeUser(info.pseudonym, credential, profile)
    info.credentials[home_name] = credential
    world.log_event("user_registered", node=home_name, user=username,
                    pseudonym=info.pseudonym.hex())


def request_access(world, req_id: str, username: str, target: str,
                   resource: str, home: str | None = None,
                   bad_credential: bool = False) -> None:
    """Step one: the user asks the target provider for a resource."""
    world.requests[req_id] = RequestRecord(req_id, username, home, target,
                                           resource)
    _log_request(world, req_id, "REQUESTED", node=target)
    info = world.users.get(username)
    if info is None:
        _log_request(world, req_id, "DENIED", node=target,
                     reason="UNKNOWN_USER")
        return
    if target in info.credentials:
        # the user's own provider serves directly; nothing goes on-chain
        _log_request(world, req_id, "GRANTED", node=target, local=True)
        return
    home = home or next(iter(info.credentials))
    world.requests[req_id].home = home
    credential = b"" if bad_credential else info.credentials.get(home, b"")
    target_node = world.nodes[target]
    deadline = world.now + _timeout_ms(world)
    target_node.pending[req_id] = ForeignRequest(
        home=home, resource=resource_address(resource), deadline=deadline)
    _log_request(world, req_id, "REDIRECTED", node=target, home=home)
    world.send_msg(target, home, {
        "kind": "auth_request", "req_id": req_id,
        "pseudonym": info.pseudonym, "credential": credential,
        "foreign": target, "resource": resource, "deadline": deadline})


def iaas_share(world, req_id: str, borrower: str, lender: str,
               resource: str) -> None:
    """Provider-to-provider capacity sharing rides the same user flow:
    the borrower enrolls a service account with itself, then requests the
    lender's resource as that account's home provider."""
    username = f"iaas:{borrower}"
    if username not in world.users:
        register_user(world, borrower, username)
    world.log_event("iaas_share", node=borrower, lender=lender,
                    resource=resource, req=req_id)
    request_access(world, req_id, username, lender, resource, home=borrower)


def scripted_feedback(world, req_ref: str, by: str, label_name: str) -> None:
    rec = world.requests.get(req_ref)
    label = int(CredLabel[label_name] if by == "foreign"
                else SatLabel[label_name])
    if rec is None or rec.state != "GRANTED" or rec.token_id is None:
        world.log_event("feedback_failed", req=req_ref, by=by,
                        reason="NOT_GRANTED")
        return
    node = world.nodes[rec.target if by == "foreign" else rec.home]
    token = node.chain.lookup_token(rec.token_id)
    if token is None:
        world.log_event("feedback_failed", req=req_ref, by=by,
                        reason="UNKNOWN_TOKEN")
        return
    submit_feedback(world, node, token, label)


# ===========================================================================
# Message handlers (dispatched by the world's event loop)
# ===========================================================================

def on_message(world, node, src: str, payload: dict) -> None:
    kind = payload["kind"]
    if kind == "auth_request":
        _on_auth_request(world, node, src, payload)
    elif kind == "auth_denied":
        _on_auth_denied(world, node, payload)
    elif kind == "token_issued":
        _on_token_issued(world, node, payload)
    else:   # "grant_notice"; only the kinds above are ever sent
        _on_grant_notice(world, node, payload)


def _on_auth_request(world, home, src: str, payload: dict) -> None:
    """Step two and three: authenticate the user, issue the token."""
    if world.now >= payload["deadline"]:
        return      # the foreign provider times the request out
    req_id = payload["req_id"]
    record = home.users.get(payload["pseudonym"])
    if record is None or record.credential != payload["credential"]:
        world.log_event("auth_failed", node=home.name, req=req_id)
        world.send_msg(home.name, src, {"kind": "auth_denied",
                                        "req_id": req_id,
                                        "reason": "AUTH_FAILED"})
        return
    world.log_event("auth_ok", node=home.name, req=req_id,
                    pseudonym=record.pseudonym.hex())

    foreign = world.nodes[payload["foreign"]]
    resource = resource_address(payload["resource"])
    token = _pick_token(world, home, record.pseudonym, foreign.address,
                        resource)
    tx = build_token_tx(home.key, record.profile, foreign.key.pub_bytes,
                        token, home.rng)
    home.last_token = token
    world.broadcast_tx(home, tx)
    world.requests[req_id].token_id = token.token_id
    _log_request(world, req_id, "TOKEN_ISSUED", node=home.name,
                 token=token.token_id.hex())
    world.send_msg(home.name, payload["foreign"], {
        "kind": "token_issued", "req_id": req_id,
        "token_id": token.token_id, "expires_at": token.expires_at})


def _pick_token(world, home, pseudonym: bytes, audience: bytes,
                resource: bytes) -> AccessToken:
    if home.behavior == "double_issuer" and home.last_token is not None:
        prev = home.last_token
        # replay the previous token whenever its claims still fit
        if (prev.audience == audience and prev.resource == resource
                and prev.pseudonym == pseudonym
                and prev.expires_at > world.now):
            return prev
    return AccessToken(
        pseudonym=pseudonym, issuer=home.address, audience=audience,
        resource=resource, privileges=PRIVILEGES, issued_at=world.now,
        expires_at=world.now + _ttl_ms(world), nonce=home.rng.u64())


def _on_auth_denied(world, foreign, payload: dict) -> None:
    req_id = payload["req_id"]
    if foreign.pending.pop(req_id, None) is None:
        return
    _log_request(world, req_id, "DENIED", node=foreign.name,
                 reason=payload["reason"])


def _on_token_issued(world, foreign, payload: dict) -> None:
    ctx = foreign.pending.get(payload["req_id"])
    if ctx is None:
        return
    ctx.token_id = payload["token_id"]
    ctx.deadline = world.now + _timeout_ms(world)
    _check_pending(world, foreign)   # the tx may already be confirmed


def _on_grant_notice(world, home, payload: dict) -> None:
    """Step five, home side: queue the satisfaction rating for the grant."""
    home.pending_sat.add(payload["token_id"])
    _flush_sat_feedback(world, home)


# ===========================================================================
# Chain watchers and timers
# ===========================================================================

def on_canonical_change(world, node) -> None:
    """Called whenever a node's canonical chain gains or swaps blocks."""
    _check_pending(world, node)
    _flush_sat_feedback(world, node)


def _check_pending(world, foreign) -> None:
    """Step four: grant once the token is confirmed on our replica."""
    for req_id in sorted(foreign.pending):
        ctx = foreign.pending[req_id]
        if ctx.token_id is None:
            continue
        token = foreign.chain.lookup_token(ctx.token_id)
        if token is None:
            continue    # not confirmed yet
        del foreign.pending[req_id]
        if world.now > token.expires_at:
            _log_request(world, req_id, "DENIED", node=foreign.name,
                         reason="EXPIRED")
            continue
        if token.audience != foreign.address:
            _log_request(world, req_id, "DENIED", node=foreign.name,
                         reason="AUDIENCE")
            continue
        if token.resource != ctx.resource:
            _log_request(world, req_id, "DENIED", node=foreign.name,
                         reason="RESOURCE")
            continue
        if ctx.token_id in foreign.consumed:
            _log_request(world, req_id, "DENIED", node=foreign.name,
                         reason="TOKEN_REUSED")
            continue
        foreign.consumed.add(ctx.token_id)
        _log_request(world, req_id, "GRANTED", node=foreign.name,
                     token=ctx.token_id.hex(), expires_at=token.expires_at)
        if world.cfg.auto_feedback:
            submit_feedback(world, foreign, token,
                            int(_cred_label(foreign.behavior)))
        home_name = ctx.home
        world.send_msg(foreign.name, home_name, {
            "kind": "grant_notice", "req_id": req_id,
            "token_id": ctx.token_id})


def _flush_sat_feedback(world, home) -> None:
    if not world.cfg.auto_feedback:
        home.pending_sat.clear()
        return
    for token_id in sorted(home.pending_sat):
        token = home.chain.lookup_token(token_id)
        if token is None:
            continue    # wait for our replica to catch up
        home.pending_sat.remove(token_id)
        submit_feedback(world, home, token, int(_sat_label(home.behavior)))


def check_timeouts(world, node) -> None:
    """Expire requests whose confirmation window has closed."""
    for req_id in sorted(node.pending):
        ctx = node.pending[req_id]
        if world.now >= ctx.deadline:
            del node.pending[req_id]
            _log_request(world, req_id, "DENIED", node=node.name,
                         reason="TOKEN_TIMEOUT")


# ===========================================================================
# Ratings
# ===========================================================================

def _cred_label(behavior: str) -> CredLabel:
    if behavior == "smearer":
        return CredLabel.VERY_BAD
    if behavior == "flatterer":
        return CredLabel.EXCELLENT
    return CredLabel.GOOD


def _sat_label(behavior: str) -> SatLabel:
    if behavior == "smearer":
        return SatLabel.FULLY_DISSATISFIED
    if behavior == "flatterer":
        return SatLabel.FULLY_SATISFIED
    return SatLabel.SATISFIED


def submit_feedback(world, node, token: AccessToken, label: int) -> None:
    """Build, self-check, and broadcast one rating for a served token."""
    if label <= 4:
        subject = token.issuer      # foreign provider rates the user's home
    else:
        subject = token.audience    # home provider rates the serving side
    fb = FeedbackData(rater=node.address, subject=subject,
                      user=token.pseudonym, label=label,
                      token_id=token.token_id)
    tx = build_feedback_tx(node.key, fb)
    reason = node.chain.validate_tx(tx)
    if reason is not None and reason not in TRANSIENT_REASONS:
        world.log_event("feedback_dropped", node=node.name, label=label,
                        reason=reason, token=token.token_id.hex())
        return
    world.log_event("feedback_submitted", node=node.name, label=label,
                    subject=subject.hex(), token=token.token_id.hex())
    world.broadcast_tx(node, tx)
