"""End-to-end acceptance checks.

Each test exercises one release criterion and records a PASS/FAIL line
(printed in the terminal summary) alongside the usual assertion, so a run
of this file doubles as the sign-off checklist.
"""

import json
import statistics
import time

import yaml

from ctsim import consensus
from ctsim.consensus import (
    CspConsensusState, calibrate_base_target, candidate_prf,
    check_eligibility, csp_difficulty, elapsed_intervals,
)
from ctsim.crypto import DetRng, generate_keypair
from ctsim.fixedpoint import ONE, fp_from, to_float
from ctsim.ledger import ConsensusParams, Journal, TxKind, read_ledger
from ctsim.replica import replay_blocks
from ctsim.trust import (
    TrustState, auth_update, bucketize, cred_update, overall_trust,
)

from conftest import (
    base_cfg, drain, four_nodes, record_criterion, run_cfg, trust_fingerprint,
)

fp = fp_from


def verdict(n, label, ok, detail):
    record_criterion(f"criterion {n:2d} ({label}): "
                     f"{'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n} ({label}): {detail}"


# ---------------------------------------------------------------------------

def test_c01_calibrated_interval():
    t0 = time.monotonic()
    cfg = base_cfg(seed=101, duration_ms=200_000, auto_feedback=False)
    world = run_cfg(cfg)
    wall = time.monotonic() - t0
    blocks = world.canonical.chain.blocks
    ts = [b.header.timestamp for b in blocks]
    gaps = [b - a for a, b in zip(ts, ts[1:])]
    mean = statistics.mean(gaps)
    ok = len(gaps) >= 500 and 210 <= mean <= 390 and wall < 10
    verdict(1, "calibrated block interval", ok,
            f"{len(gaps)} blocks, mean {mean:.1f} ms "
            f"(target 300±30%), wall {wall:.1f} s")


def test_c02_feedback_closure():
    t0 = time.monotonic()
    rng = DetRng(102, b"closure")
    journal = Journal()
    st = TrustState(journal)
    csps = [rng.take(20) for _ in range(6)]
    users = [rng.take(20) for _ in range(8)]
    for c in csps:
        st.register(c, fp("0.5"), fp("0.5"))
    cred_feedbacks = 0
    for _ in range(100_000):
        a, b = rng.randbelow(6), rng.randbelow(6)
        if a == b:
            b = (b + 1) % 6
        label = rng.randbelow(10)
        cred_feedbacks += label <= 4
        st.apply_feedback(csps[a], csps[b], users[rng.randbelow(8)], label)
    # the fold's work, exactly: one write per registration, then a pair
    # and its subject's running sum for each pair a feedback touches
    # (cred and auth for a cred label, sat for a sat label)
    writes = journal.mark()
    want_writes = 6 + 4 * cred_feedbacks + 2 * (100_000 - cred_feedbacks)
    stores = [st.cred, st.auth, st.sat]
    in_range = all(0 <= v <= ONE for s in stores for v in s.values())
    derived = [st.trust_of(c) for c in csps] \
        + [st.sat_score(c) for c in csps] \
        + [st.auth_score(c) for c in csps] \
        + [st.cred_user(u) for u in users]
    in_range = in_range and all(0 <= v <= ONE for v in derived)
    wall = time.monotonic() - t0
    ok = in_range and writes == want_writes and wall < 5
    verdict(2, "score closure under load", ok,
            f"100000 feedbacks, all scores in [0,1]: {in_range}, "
            f"{writes} journal writes (want {want_writes}), "
            f"wall {wall:.1f} s")


def test_c03_incremental_equals_replay():
    t0 = time.monotonic()
    mismatches = []
    for seed in range(10):
        cfg = base_cfg(
            seed=200 + seed, duration_ms=9000,
            actions=[
                {"at_ms": 500, "action": "register_user",
                 "user": "wanderer", "home": "alpha"},
                {"at_ms": 1500, "action": "request_access",
                 "user": "wanderer", "target": "beta",
                 "resource": "vm-small"},
            ])
        world = run_cfg(cfg)
        live = trust_fingerprint(world.canonical.replica.trust)
        redo = trust_fingerprint(
            replay_blocks(world.canonical.chain.blocks).trust)
        if live != redo:
            mismatches.append(seed)
    wall = time.monotonic() - t0
    ok = not mismatches and wall < 30
    verdict(3, "incremental state equals replay", ok,
            f"10 seeded runs, mismatches: {mismatches or 'none'}, "
            f"wall {wall:.1f} s")


def test_c04_update_rules_converge():
    worst = 0
    for trust_f in (fp("0.3"), fp("0.7"), ONE):
        for label in range(5):
            x = bucketize(label)
            c = ONE
            for _ in range(50):
                c = cred_update(c, trust_f, x)
            worst = max(worst, abs(c - trust_f * x // ONE))
    for label in range(5, 10):
        x = bucketize(label)
        a = 0
        for _ in range(50):
            a = auth_update(a, x)
        worst = max(worst, abs(a - x))
    ok = worst <= 1     # one fixed-point ulp == 1e-12
    verdict(4, "update rules converge", ok,
            f"worst fixed-point distance after 50 steps: {worst} ulp")


def test_c05_weight_identities():
    rng = DetRng(105, b"weights")
    bad = 0
    for _ in range(1000):
        s, a = rng.randbelow(ONE + 1), rng.randbelow(ONE + 1)
        w = rng.randbelow(ONE) + 1
        if overall_trust(s, a, w, w) != (s + a) // 2:
            bad += 1
        if overall_trust(s, a, w, 0) != s:
            bad += 1
    ok = bad == 0
    verdict(5, "weight identities exact", ok,
            f"1000 random pairs, violations: {bad}")


def test_c06_any_byte_flip_fails_verification(tmp_path):
    from test_scenario_cli import run_cli
    cfg = base_cfg(
        seed=106, duration_ms=12_000,
        actions=[
            {"at_ms": 500, "action": "register_user",
             "user": "wanderer", "home": "alpha"},
            {"at_ms": 1500, "action": "request_access",
             "user": "wanderer", "target": "beta", "resource": "vm-small"},
        ])
    scn = tmp_path / "flow.yaml"
    scn.write_text(yaml.safe_dump(cfg))
    code, _, _ = run_cli("run", str(scn), "--out-dir", str(tmp_path))
    assert code == 0
    pristine = (tmp_path / "ledger.bin").read_bytes()
    code, _, _ = run_cli("verify", str(tmp_path / "ledger.bin"))
    assert code == 0

    rng = DetRng(106, b"flips")
    target = tmp_path / "mutated.bin"
    undetected = 0
    for _ in range(1000):
        pos = rng.randbelow(len(pristine))
        bit = 1 << rng.randbelow(8)
        raw = bytearray(pristine)
        raw[pos] ^= bit
        target.write_bytes(bytes(raw))
        code, _, _ = run_cli("verify", str(target))
        if code != 1:
            undetected += 1
    ok = undetected == 0
    verdict(6, "mutation detection", ok,
            f"1000 single-bit corruptions, undetected: {undetected} "
            f"(ledger {len(pristine)} bytes)")


def test_c07_no_token_serves_twice():
    double_grants = []
    double_inclusions = []
    for seed in range(10):
        nodes = four_nodes()
        nodes[0]["behavior"] = "double_issuer"
        cfg = base_cfg(
            seed=300 + seed, duration_ms=14_000, nodes=nodes,
            actions=[
                {"at_ms": 500, "action": "register_user",
                 "user": "wanderer", "home": "alpha"},
                {"at_ms": 1500, "action": "request_access",
                 "user": "wanderer", "target": "beta",
                 "resource": "vm-small"},
                {"at_ms": 3500, "action": "request_access",
                 "user": "wanderer", "target": "beta",
                 "resource": "vm-small"},
                {"at_ms": 5500, "action": "request_access",
                 "user": "wanderer", "target": "beta",
                 "resource": "vm-small"},
            ])
        world = run_cfg(cfg)
        drain(world)
        grants: dict[str, int] = {}
        for e in world.events:
            if e["event"] == "request_state" and e["state"] == "GRANTED" \
                    and "token" in e:
                grants[e["token"]] = grants.get(e["token"], 0) + 1
        if any(n > 1 for n in grants.values()):
            double_grants.append(seed)
        for node in world.nodes.values():
            seen = set()
            for blk in node.chain.blocks:
                for tx in blk.txs:
                    if tx.kind != TxKind.TOKEN:
                        continue
                    tid = tx.data.token.token_id
                    if tid in seen:
                        double_inclusions.append(seed)
                    seen.add(tid)
    ok = not double_grants and not double_inclusions
    verdict(7, "one grant per token", ok,
            f"10 seeds, double grants: {double_grants or 'none'}, "
            f"double inclusions: {double_inclusions or 'none'}")


def test_c08_partitions_heal():
    split = []
    switches = 0
    for seed in range(10):
        cfg = base_cfg(
            seed=400 + seed, duration_ms=12_000,
            partitions=[
                {"at_ms": 3000, "groups": [["alpha", "beta"],
                                           ["gamma", "delta"]]},
                {"at_ms": 9000, "heal": True},      # 20 intervals apart
            ])
        world = run_cfg(cfg)    # ends 10 intervals after the heal
        drain(world)
        tips = {n.chain.tip.h_blk for n in world.nodes.values()}
        if len(tips) != 1:
            split.append(seed)
        switches += sum(1 for e in world.events
                        if e["event"] == "fork_switch")
    ok = not split and switches > 0
    verdict(8, "partition recovery", ok,
            f"10 seeds, unconverged: {split or 'none'}, "
            f"fork switches: {switches}")


def test_c09_distrusted_node_stays_silent():
    nodes = four_nodes()
    nodes[3]["trust_override"] = 0
    cfg = base_cfg(seed=109, duration_ms=150_000,    # 500 intervals
                   nodes=nodes, auto_feedback=False)
    world = run_cfg(cfg)
    drain(world)
    pub = world.nodes["delta"].key.pub_bytes
    landed = sum(1 for n in world.nodes.values()
                 for b in n.chain.blocks[1:]
                 if b.header.generator_pub == pub)
    generated = sum(1 for e in world.events
                    if e["event"] == "block_generated"
                    and e["node"] == "delta")
    height = world.canonical.chain.height
    ok = landed == 0 and generated == 0 and height >= 400
    verdict(9, "zero-trust exclusion", ok,
            f"500 intervals, pinned node blocks: {landed} landed / "
            f"{generated} generated; network height {height}")


# ---------------------------------------------------------------------------

def _race_share(probe_stake, probe_trust, filler_stake, filler_trust,
                blocks=2000, seed=0):
    """Share of blocks a probe provider wins against three fillers."""
    stakes = [probe_stake] + [filler_stake] * 3
    trusts = [probe_trust] + [filler_trust] * 3
    params = ConsensusParams(
        base_target=calibrate_base_target(stakes, trusts))
    rng = DetRng(110 + seed, b"race")
    keys = [generate_keypair(rng.take(32)) for _ in range(4)]
    states = [CspConsensusState(s, 0, rng.take(32)) for s in stakes]
    wins = [0] * 4
    now = 0
    while sum(wins) < blocks:
        now += params.slot_ms
        eligible = []
        for i in range(4):
            d = csp_difficulty(
                params, elapsed_intervals(now, states[i].last_generated_ts,
                                          params), states[i].stake, trusts[i])
            prf = candidate_prf(keys[i].pub_bytes, states[i].prf_old)
            if consensus._eligible(prf, d, params.k_bits):
                eligible.append((prf, i))
        if not eligible:
            continue
        prf, i = min(eligible)      # lowest draw takes a contested slot
        wins[i] += 1
        states[i] = states[i]._replace(last_generated_ts=now, prf_old=prf)
    return wins[0] / sum(wins)


def test_c10_production_share_is_monotone():
    stake_shares = []
    for s in ("0.1", "0.2", "0.4"):
        filler = (ONE - fp(s)) // 3
        stake_shares.append(_race_share(fp(s), fp("0.5"),
                                        filler, fp("0.5")))
    trust_shares = []
    for t in ("0.2", "0.5", "0.9"):
        trust_shares.append(_race_share(fp("0.25"), fp(t),
                                        fp("0.25"), fp("0.5"), seed=1))
    ok = stake_shares[0] < stake_shares[1] < stake_shares[2] \
        and trust_shares[0] < trust_shares[1] < trust_shares[2]
    fmt = lambda xs: "/".join(f"{x:.3f}" for x in xs)
    verdict(10, "share grows with stake and trust", ok,
            f"2000 blocks per point; stake grid {fmt(stake_shares)}, "
            f"trust grid {fmt(trust_shares)}")
