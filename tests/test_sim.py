"""World-level behavior: determinism, convergence, partitions, adversaries."""

import ast
import pathlib

import pytest

from ctsim import consensus
from ctsim.fixedpoint import ONE, fp_from
from ctsim.ledger import RegisterData, build_register_tx, ser_block
from ctsim.crypto import DetRng, generate_keypair

from conftest import base_cfg, four_nodes, make_world, run_cfg


def canonical_bytes(world) -> bytes:
    return b"".join(ser_block(b) for b in world.canonical.chain.blocks)


def events_of(world, name):
    return [e for e in world.events if e["event"] == name]


def tips(world):
    return {n: node.chain.tip.h_blk for n, node in world.nodes.items()}


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_everything():
    a = run_cfg(base_cfg())
    b = run_cfg(base_cfg())
    assert canonical_bytes(a) == canonical_bytes(b)
    assert a.events == b.events


def test_seed_actually_matters():
    a = run_cfg(base_cfg(seed=7))
    b = run_cfg(base_cfg(seed=8))
    assert canonical_bytes(a) != canonical_bytes(b)


def test_honest_network_converges(world_10s):
    world_10s.drain()
    got = tips(world_10s)
    assert len(set(got.values())) == 1, got
    assert world_10s.canonical.chain.height > 5


def test_drain_is_idempotent(world_10s):
    world_10s.drain()
    before = tips(world_10s)
    world_10s.drain()
    assert tips(world_10s) == before


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def test_latency_override_and_jitter_bounds():
    cfg = base_cfg(links={
        "default_latency_ms": 50, "jitter_ms": 20,
        "overrides": [{"from": "alpha", "to": "beta", "latency_ms": 7}],
    })
    world = make_world(cfg)
    for _ in range(200):
        lat = world.latency("alpha", "beta")
        assert 7 <= lat <= 27
        lat = world.latency("beta", "alpha")     # override is directional
        assert 50 <= lat <= 70
    # repeated worlds draw the same jitter stream
    again = make_world(cfg)
    assert [world.latency("gamma", "delta") for _ in range(50)] \
        == [again.latency("gamma", "delta") for _ in range(50)]


def test_zero_jitter_is_constant():
    world = make_world(base_cfg(links={"default_latency_ms": 30,
                                       "jitter_ms": 0}))
    assert {world.latency("alpha", "delta") for _ in range(20)} == {30}


def test_partition_cuts_then_heals():
    cfg = base_cfg(
        seed=11, duration_ms=16000,
        partitions=[
            {"at_ms": 3000, "groups": [["alpha", "beta"],
                                       ["gamma", "delta"]]},
            {"at_ms": 9000, "heal": True},
        ])
    world = run_cfg(cfg)
    assert len(events_of(world, "partition_start")) == 1
    assert len(events_of(world, "partition_heal")) == 1
    drops = events_of(world, "partition_drop")
    assert drops, "no traffic ever crossed the cut"
    for e in drops:
        assert 3000 <= e["ts"] <= 9000
    world.drain()
    assert len(set(tips(world).values())) == 1


def test_heal_without_cut_is_noop():
    cfg = base_cfg(partitions=[{"at_ms": 1000, "heal": True}])
    world = run_cfg(cfg)
    assert events_of(world, "partition_heal") == []
    assert events_of(world, "partition_drop") == []


def test_isolated_node_outside_all_groups():
    # delta is listed in no group: it can talk to nobody while cut
    cfg = base_cfg(partitions=[
        {"at_ms": 0, "groups": [["alpha", "beta"], ["gamma"]]}])
    world = make_world(cfg)
    world.run()
    assert not world.reachable("delta", "alpha")
    assert not world.reachable("gamma", "beta")
    assert world.reachable("delta", "delta")
    assert world.reachable("alpha", "beta")


# ---------------------------------------------------------------------------
# Adversaries and overrides
# ---------------------------------------------------------------------------

def test_tamperer_feeds_nobody():
    nodes = four_nodes()
    nodes[1]["behavior"] = "tamperer"
    world = run_cfg(base_cfg(seed=13, duration_ms=12000, nodes=nodes))
    world.drain()
    tampered = events_of(world, "block_tampered")
    assert tampered, "tamperer never won a slot; scenario too short"
    bad_pub = world.nodes["beta"].key.pub_bytes
    for node in world.nodes.values():
        for blk in node.chain.blocks[1:]:
            assert blk.header.generator_pub != bad_pub
    rejects = events_of(world, "block_rejected")
    assert any(e["source"] == "beta" for e in rejects)
    # the honest majority still converges around the vandal
    assert len(set(tips(world).values())) == 1


def test_trust_override_zero_silences_node():
    nodes = four_nodes()
    nodes[2]["trust_override"] = 0
    world = run_cfg(base_cfg(seed=17, nodes=nodes))
    accepted = events_of(world, "block_accepted")
    assert all(e["generator"] != "gamma" for e in accepted)
    assert any(e["generator"] != "gamma" for e in accepted)
    reg = [e for e in events_of(world, "register") if e["node"] == "gamma"]
    assert reg and reg[0]["trust_override"] == 0.0
    other = [e for e in events_of(world, "register") if e["node"] == "alpha"]
    assert other and "trust_override" not in other[0]


def test_fixed_base_target_skips_calibration():
    cfg = base_cfg(consensus={"base_target": 0.25})
    world = make_world(cfg)
    assert world.params.base_target == fp_from("0.25")
    auto = make_world(base_cfg())
    assert auto.params.base_target != world.params.base_target


# ---------------------------------------------------------------------------
# Mempool admission
# ---------------------------------------------------------------------------

def test_admit_tx_dedup_and_rejection():
    world = make_world(base_cfg())
    node = world.canonical
    fresh = generate_keypair(DetRng(31, b"newcsp").take(32))
    tx = build_register_tx(fresh, RegisterData(fp_from("0.1"),
                                               fp_from("0.5"), fp_from("0.5")))
    node.admit_tx(world, tx, source="test")
    assert tx.txid in node.mempool
    node.admit_tx(world, tx, source="test")
    assert len(node.mempool) == 1

    dup = build_register_tx(node.key, RegisterData(fp_from("0.1"),
                                                   fp_from("0.5"),
                                                   fp_from("0.5")))
    node.admit_tx(world, dup, source="test")
    assert dup.txid not in node.mempool
    rejected = events_of(world, "tx_rejected")
    assert rejected and rejected[-1]["reason"] == "DUPLICATE_CSP"


def test_midrun_registration_reaches_everyone():
    cfg = base_cfg(
        seed=23, duration_ms=12000,
        actions=[{"at_ms": 2000, "action": "register_csp",
                  "name": "echo", "stake": 0.1}])
    world = run_cfg(cfg)
    world.drain()
    echo = world.nodes["echo"]
    for n in world.nodes.values():
        assert echo.address in n.chain.registered
        # eviction invariant: nothing already on-chain lingers in a mempool
        assert not (n.mempool.keys() & n.chain.txids)


# ---------------------------------------------------------------------------
# Invariants fail loudly, also under python -O
# ---------------------------------------------------------------------------

def test_src_holds_no_assert_statements():
    # python -O strips assert statements, so invariants must raise instead
    src = pathlib.Path(consensus.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, (path.name, lines)


def test_schedule_into_the_past_raises():
    world = make_world(base_cfg())
    world.now = 500
    with pytest.raises(ValueError, match="past"):
        world.schedule(499, "tick", ())


def _eligible_alpha(monkeypatch):
    world = make_world(base_cfg())
    world.now = 100
    monkeypatch.setattr(consensus, "check_eligibility", lambda *args: True)
    return world, world.nodes["alpha"]


def test_eligible_node_that_seals_nothing_raises(monkeypatch):
    world, alpha = _eligible_alpha(monkeypatch)
    monkeypatch.setattr(consensus, "generate_block", lambda *args: None)
    with pytest.raises(RuntimeError, match="no block sealed"):
        alpha.try_generate(world)


def test_node_rejecting_its_own_block_raises(monkeypatch):
    world, alpha = _eligible_alpha(monkeypatch)
    monkeypatch.setattr(alpha.replica, "apply", lambda blk: "BAD_LINK")
    with pytest.raises(RuntimeError, match="own block rejected: BAD_LINK"):
        alpha.try_generate(world)
