"""World-level behavior: determinism, convergence, partitions, adversaries."""

import ast
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from ctsim import consensus, crypto, sim
from ctsim.fixedpoint import ONE, fp_from
from ctsim.ledger import (
    AccessToken, Block, BlockHeader, LedgerError, RegisterData, TxKind,
    build_register_tx, build_token_tx, compute_tx_root, ser_block,
)
from ctsim.crypto import DetRng, address_of, generate_keypair, resource_address
from ctsim.replica import replay_blocks
from ctsim.sim import (
    DELIVER_BLOCK, DELIVER_TX, MAX_TXS_PACKED, Node, _corrupt_block,
)

from conftest import (
    base_cfg, chain_state, drain, four_nodes, make_world, replica_state,
    run_cfg,
)


def canonical_bytes(world) -> bytes:
    return b"".join(ser_block(b) for b in world.canonical.chain.blocks)


# a user registers at alpha and asks beta for a resource, so blocks carry
# token and feedback transactions
FLOW = [
    {"at_ms": 500, "action": "register_user", "user": "wanderer",
     "home": "alpha"},
    {"at_ms": 1500, "action": "request_access", "user": "wanderer",
     "target": "beta", "resource": "vm-small"},
]


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
    drain(world_10s)
    got = tips(world_10s)
    assert len(set(got.values())) == 1, got
    assert world_10s.canonical.chain.height > 5


def test_drain_is_idempotent(world_10s):
    drain(world_10s)
    before = tips(world_10s)
    drain(world_10s)
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
        seed=11, duration_ms=16000, actions=FLOW,
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
    drain(world)
    assert len(set(tips(world).values())) == 1
    # every node rewound and re-applied its way there, the losing side of
    # the heal included; each must hold exactly what a replay derives
    assert max(e["depth"] for e in events_of(world, "fork_switch")) > 1
    for node in world.nodes.values():
        redo = replay_blocks(node.chain.blocks)
        assert replica_state(node.replica) == replica_state(redo), node.name


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
    drain(world)
    tampered = events_of(world, "block_tampered")
    assert tampered, "tamperer never won a slot; scenario too short"
    bad_pub = world.nodes["beta"].key.pub_bytes
    for node in world.nodes.values():
        for blk in node.chain.blocks[1:]:
            assert blk.header.generator_pub != bad_pub
    # each honest node reads one forged block, then no more from beta
    honest = sorted(set(world.nodes) - {"beta"})
    for kind in ("block_rejected", "peer_discouraged"):
        assert sorted((e["node"], e["source"])
                      for e in events_of(world, kind)) \
            == [(name, "beta") for name in honest], kind
    assert len(tampered) > 1
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
    params = make_world(cfg).canonical.chain.params
    assert params.base_target == fp_from("0.25")
    auto = make_world(base_cfg()).canonical.chain.params
    assert auto.base_target != params.base_target


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


def test_pack_caps_a_block_oldest_first():
    world = make_world(base_cfg())
    node = world.canonical
    regs = [build_register_tx(generate_keypair(DetRng(i, b"cap").take(32)),
                              RegisterData(fp_from("0.5"), fp_from("0.5"), 0))
            for i in range(MAX_TXS_PACKED + 2)]
    for tx in regs:
        node.admit_tx(world, tx, source="test")
    assert node._pack_txs(world) == tuple(regs[:MAX_TXS_PACKED])
    assert list(node.mempool) == [tx.txid for tx in regs]


def test_pack_drops_a_token_that_expired_in_the_mempool():
    world = make_world(base_cfg())
    alpha, beta = world.nodes["alpha"], world.nodes["beta"]
    token = AccessToken(
        pseudonym=bytes(20), issuer=alpha.address, audience=beta.address,
        resource=resource_address("r"), privileges=(b"access",),
        issued_at=0, expires_at=300, nonce=1)
    tx = build_token_tx(alpha.key, b"{}", beta.key.pub_bytes, token,
                        DetRng(5))
    alpha.admit_tx(world, tx, source="test")
    world.now = 299
    assert alpha._pack_txs(world) == (tx,)
    world.now = 300
    assert alpha._pack_txs(world) == ()
    assert tx.txid not in alpha.mempool


def test_midrun_registration_reaches_everyone():
    cfg = base_cfg(
        seed=23, duration_ms=12000,
        actions=[{"at_ms": 2000, "action": "register_csp",
                  "name": "echo", "stake": 0.1},
                 {"at_ms": 2500, "action": "register_csp",
                  "name": "foxtrot", "stake": 0.1, "trust_override": 0}])
    world = run_cfg(cfg)
    drain(world)
    echo = world.nodes["echo"]
    pinned = world.nodes["foxtrot"].address
    for n in world.nodes.values():
        assert echo.address in n.chain.registered
        # eviction invariant: nothing already on-chain lingers in a mempool
        assert not (n.mempool.keys() & n.chain.txids)
        # a pin added mid-run binds the nodes built before it as well
        assert n.replica.trust_for(pinned) == 0, n.name


# ---------------------------------------------------------------------------
# Invariants fail loudly, also under python -O
# ---------------------------------------------------------------------------

FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
IMPORTS = (ast.Import, ast.ImportFrom)

# the only import inside a function, as (module, function, package): PyYAML
# loads in the one function that reads a scenario file, so verify and
# trust-report, which never call it, run on the stdlib alone
FUNCTION_LEVEL_IMPORTS = {
    ("cli", "read_config", "yaml"),
}

# the modules a ledger replay loads, and the package's __init__, which
# importing any of them runs first; _aesgcm, the cipher crypto imports,
# among them, so a run's encryption needs nothing installed either
VERIFIER = ("__init__", "_aesgcm", "_ecbackend", "consensus", "crypto",
            "fixedpoint", "ledger", "replica", "trust")


def _src_trees() -> dict[str, ast.Module]:
    src = pathlib.Path(consensus.__file__).parent
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(src.glob("*.py"))}


def _imported(node) -> list[str]:
    """The top-level package each name of an import statement loads; a
    ctsim module, imported relatively, carries a leading dot."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if node.level:
        if node.module:
            return ["." + node.module.split(".")[0]]
        return ["." + alias.name for alias in node.names]
    return [node.module.split(".")[0]]


def _outside_functions(tree):
    """The nodes of tree that no function body holds."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, FUNCS))


def test_src_holds_no_asserts_or_function_level_imports():
    # python -O strips assert statements, so invariants must raise instead.
    # An import inside a function hides a module cycle, so imports sit at
    # module level, but for FUNCTION_LEVEL_IMPORTS: PyYAML, a third-party
    # package, cannot close a ctsim cycle. importlib and __import__ would
    # import round this scan, so neither appears.
    found = set()
    for module, tree in _src_trees().items():
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, (module, lines)
        found |= {(module, f.name, package)
                  for f in ast.walk(tree) if isinstance(f, FUNCS)
                  for n in ast.walk(f) if isinstance(n, IMPORTS)
                  for package in _imported(n)}
        dynamic = [n.lineno for n in ast.walk(tree)
                   if isinstance(n, IMPORTS) and "importlib" in _imported(n)
                   or isinstance(n, ast.Name) and n.id == "__import__"
                   or isinstance(n, ast.Attribute) and n.attr == "__import__"]
        assert not dynamic, (module, dynamic)
    assert found == FUNCTION_LEVEL_IMPORTS


def test_the_verifier_imports_only_the_stdlib_and_itself():
    # so verify, and a run's encryption, work on any interpreter the
    # package declares, with nothing installed
    trees = _src_trees()
    # crypto tries _sha2 (3.12+), then _sha256 (3.10-3.11): each is in
    # sys.stdlib_module_names only on the versions that ship it
    allowed = (set(sys.stdlib_module_names) | {"_sha2", "_sha256"}
               | {"." + m for m in VERIFIER})
    for module in VERIFIER:
        imported = {package for n in _outside_functions(trees[module])
                    if isinstance(n, IMPORTS) for package in _imported(n)}
        assert imported <= allowed, (module, sorted(imported - allowed))


def _fresh_python(code, *args, timeout):
    """Run ``code`` in a new interpreter with this checkout's src first on
    PYTHONPATH."""
    src = pathlib.Path(consensus.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_importing_ctsim_loads_no_dataclass_machinery():
    # records are NamedTuples: dataclasses, and the inspect, ast and dis
    # that it imports, would cost every ctsim process tens of ms to load
    probe = ("import sys, ctsim.cli, ctsim.sim; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    done = _fresh_python(probe, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# runs demo, verifies its ledger and reports its trust, in one process, as
# the ctsim commands do; prints which of OpenSSL's modules are then loaded
NO_OPENSSL_PROBE = """
import contextlib, io, os, sys
from ctsim import cli
scenario, out_dir = sys.argv[1:]
ledger = os.path.join(out_dir, "ledger.bin")
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(cli.main(["run", scenario, "--out-dir", out_dir]))
    codes.append(cli.main(["verify", ledger]))
    codes.append(cli.main(["trust-report", ledger]))
print(codes, sorted({"_hashlib", "_ssl"} & sys.modules.keys()))
"""


def test_run_verify_and_trust_report_load_no_openssl(tmp_path):
    # SHA-256 and HMAC come from CPython's builtin sha2: hashlib and hmac
    # would load OpenSSL's libcrypto, about 3.6 MiB in every ctsim process
    demo = (pathlib.Path(consensus.__file__).parents[2] / "scenarios"
            / "demo.yaml")
    done = _fresh_python(NO_OPENSSL_PROBE, demo, tmp_path, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[0, 0, 0] []\n"), \
        done.stderr


def _referenced_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.asname or n.name.rsplit(".", 1)[-1]


def test_src_holds_no_test_only_helpers():
    # every module-level def or class, and every method of a class but its
    # dunders, is used by src/ctsim code outside its own body; a helper
    # only tests call belongs under tests/. Strings in __all__ are not uses.
    src = pathlib.Path(consensus.__file__).parent
    stmts = [(path.stem, stmt) for path in sorted(src.glob("*.py"))
             for stmt in ast.parse(path.read_text(), str(path)).body]
    defs = [(f"{module}.{stmt.name}", stmt) for module, stmt in stmts
            if isinstance(stmt, (*FUNCS, ast.ClassDef))]
    defs += [(f"{module}.{stmt.name}.{meth.name}", meth)
             for module, stmt in stmts if isinstance(stmt, ast.ClassDef)
             for meth in stmt.body if isinstance(meth, FUNCS)
             and not (meth.name.startswith("__") and meth.name.endswith("__"))]
    uses = Counter(name for _, stmt in stmts
                   for name in _referenced_names(stmt))
    # a name used only inside its own definition is used nowhere else
    unused = [label for label, node in defs
              if uses[node.name] == list(_referenced_names(node)).count(
                  node.name)]
    assert not unused


def _module_bindings(tree):
    """Names bound by a module's top-level defs, classes, assignments and
    imports."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield stmt.name
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name))


def test_src_all_lists_only_defined_names():
    # every __all__ entry in src/ctsim names something its module binds at
    # top level, so a deleted definition cannot linger there
    src = pathlib.Path(consensus.__file__).parent
    listed, missing = 0, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = set(_module_bindings(tree))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in stmt.targets):
                names = ast.literal_eval(stmt.value)
                listed += len(names)
                missing += [f"{path.stem}.{name}" for name in names
                            if name not in bound]
    assert listed and not missing


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


def _refuse(blk):
    raise LedgerError("BAD_LINK", height=blk.height)


def test_node_rejecting_its_own_block_raises(monkeypatch):
    world, alpha = _eligible_alpha(monkeypatch)
    monkeypatch.setattr(alpha.replica, "apply", _refuse)
    with pytest.raises(RuntimeError, match="own block rejected: BAD_LINK"):
        alpha.try_generate(world)


def _queued(world) -> list[tuple[str, str]]:
    """(kind, destination) of each delivery waiting in the queue."""
    return sorted((kind, data[0]) for _, _, kind, data in world._queue
                  if kind in (DELIVER_TX, DELIVER_BLOCK))


def test_a_peer_that_discouraged_a_source_is_sent_its_txs_not_blocks():
    world = make_world(base_cfg())
    alpha = world.nodes["alpha"]
    world.nodes["beta"]._discourage(world, "alpha")
    assert world.readers(alpha) == ["delta", "gamma"]
    world.broadcast_block(alpha, (alpha.chain.tip,))
    world.broadcast_tx(alpha, _fresh_registration(b"sent"))
    assert _queued(world) == [
        (DELIVER_BLOCK, "delta"), (DELIVER_BLOCK, "gamma"),
        (DELIVER_TX, "beta"), (DELIVER_TX, "delta"), (DELIVER_TX, "gamma")]


def test_a_tamperer_no_peer_reads_signs_and_sends_nothing(monkeypatch):
    world, alpha = _eligible_alpha(monkeypatch)
    alpha.behavior = "tamperer"
    made = []
    sign, corrupt = crypto.sign, sim._corrupt_block
    monkeypatch.setattr(crypto, "sign",
                        lambda *args: made.append("sign") or sign(*args))
    monkeypatch.setattr(sim, "_corrupt_block",
                        lambda blk: made.append("corrupt") or corrupt(blk))
    for name in ("beta", "delta", "gamma"):
        world.nodes[name]._discourage(world, "alpha")
    stored = dict(world.blocks)
    start = len(world.events)
    alpha.try_generate(world)
    logged = [(e["event"], e["h_blk"]) for e in world.events[start:]]
    assert [event for event, _ in logged] \
        == ["block_generated", "block_tampered"]
    assert logged[0][1] == logged[1][1]
    assert made == [] and world.blocks == stored and _queued(world) == []

    # one reader left: the same block is signed, corrupted, stored and
    # sent to that reader alone, under the h_blk logged before
    world.nodes["gamma"].discouraged.clear()
    alpha.try_generate(world)
    assert made == ["sign", "corrupt"]
    assert _queued(world) == [(DELIVER_BLOCK, "gamma")]
    assert set(world.blocks) - set(stored) == {bytes.fromhex(logged[0][1])}


def test_a_branch_stamped_after_the_clock_is_refused(monkeypatch):
    # a low-stake provider buys eligibility by claiming time: stamped at
    # its own last + the elapsed cap, its block wins the lottery. Accepted,
    # it would leave the receiver's own next block, stamped at now, behind
    # its tip, and the receiver would raise on it.
    world = run_cfg({"seed": 3, "duration_ms": 3000, "nodes": [
        {"name": "a", "stake": 0.3}, {"name": "b", "stake": 0.3},
        {"name": "c", "stake": 0.3}, {"name": "w", "stake": 0.1}]})
    drain(world)
    a, w = world.nodes["a"], world.nodes["w"]
    chain = a.chain
    params = chain.params
    state = consensus.consensus_state_at(chain, w.address)
    ts = max(chain.tip.header.timestamp + 1,
             state.last_generated_ts
             + params.time_cap_intervals * params.block_interval_ms)
    assert ts > world.now
    assert consensus.check_eligibility(params, state,
                                       a.replica.trust_for(w.address),
                                       w.key.pub_bytes, ts)
    header = BlockHeader(
        height=chain.height + 1, prev_block=chain.tip.h_blk,
        tx_root=compute_tx_root(()), timestamp=ts,
        generator_pub=w.key.pub_bytes,
        prf=consensus.candidate_prf(w.key.pub_bytes, state.prf_old),
        base_target=params.base_target, sig=b"\x00" * 64)
    warped = consensus.seal_block(Block(header, ()), w.key)
    before = replica_state(a.replica)
    start = len(world.events)
    a.receive_branch(world, warped, source="w")
    refused = replica_state(a.replica)
    monkeypatch.setattr(consensus, "check_eligibility", lambda *args: True)
    a.try_generate(world)

    assert [(e["event"], e.get("reason"), e["source"])
            for e in world.events[start:]
            if e["event"] in ("block_rejected", "peer_discouraged")] \
        == [("block_rejected", "TIME_TOO_NEW", "w"),
            ("peer_discouraged", None, "w")]
    assert a.discouraged == {"w"}
    assert refused == before
    assert chain.height == warped.height
    assert chain.tip.header.generator_pub == a.key.pub_bytes
    assert chain.tip.header.timestamp == world.now


# ---------------------------------------------------------------------------
# Fork handling: rewind to the fork point, apply, keep the winner
# ---------------------------------------------------------------------------

BRANCH_EVENTS = ("block_accepted", "block_rejected", "fork_switch")


def _extend(replica, world, txs=(), avoid=None) -> Block:
    """Seal and apply the next block on replica, by the first node in name
    order (other than avoid) to become eligible."""
    chain = replica.chain
    tip = chain.tip
    ts = tip.header.timestamp
    params = chain.params
    while ts < tip.header.timestamp + 1_000_000:
        ts += params.slot_ms
        for name in sorted(world.nodes):
            node = world.nodes[name]
            if node.address == avoid:
                continue
            state = consensus.consensus_state_at(chain, node.address)
            if not consensus.check_eligibility(
                    params, state, replica.trust_for(node.address),
                    node.key.pub_bytes, ts):
                continue
            header = BlockHeader(
                height=tip.height + 1, prev_block=tip.h_blk,
                tx_root=compute_tx_root(txs), timestamp=ts,
                generator_pub=node.key.pub_bytes,
                prf=consensus.candidate_prf(node.key.pub_bytes,
                                            state.prf_old),
                base_target=params.base_target, sig=b"\x00" * 64)
            blk = consensus.seal_block(Block(header, tuple(txs)), node.key)
            replica.apply(blk)
            return blk
    raise AssertionError("nobody became eligible")


def _fresh_registration(tag: bytes):
    key = generate_keypair(DetRng(97, tag).take(32))
    return build_register_tx(key, RegisterData(fp_from("0.5"), fp_from("0.5"),
                                               fp_from("0.1")))


def _rival(node, world, fork: int, length: int):
    """A valid branch leaving node's chain at fork, length blocks long; its
    last block carries a fresh registration."""
    scratch = replay_blocks(node.chain.blocks[:fork + 1])
    ours = node.chain.blocks[fork + 1].header.generator_pub
    blocks = [_extend(scratch, world, avoid=address_of(ours))]
    while len(blocks) < length - 1:
        blocks.append(_extend(scratch, world))
    if length > 1:
        blocks.append(_extend(scratch, world,
                              txs=(_fresh_registration(b"rival"),)))
    return tuple(node.chain.blocks[:fork + 1]) + tuple(blocks)


def _publish(world, branch):
    """Put a branch built by hand into the world's block store, from which
    a receiver reads back the ancestors of the tip it is sent."""
    world.blocks.update((blk.h_blk, blk) for blk in branch)


def _receive(node, world, branch, source="test"):
    """Publish a branch and deliver its tip from source once the clock has
    reached the tip's stamp (a tip stamped after it is refused unread); the
    branch-handling events it logged."""
    _publish(world, branch)
    world.now = max(world.now, branch[-1].header.timestamp)
    start = len(world.events)
    node.receive_branch(world, branch[-1], source=source)
    return [e for e in world.events[start:] if e["event"] in BRANCH_EVENTS]


@pytest.fixture
def settled():
    world = run_cfg(base_cfg(seed=29, duration_ms=6000, actions=FLOW))
    drain(world)
    node = world.nodes["alpha"]
    # fork below the highest block that carries txs, so a switch orphans them
    fork = max(b.height for b in node.chain.blocks if b.txs) - 1
    assert 0 < fork < node.chain.height - 1
    return world, node, fork


def test_rejected_and_losing_branches_leave_the_node_unchanged(settled):
    world, node, fork = settled
    before = replica_state(node.replica)
    mempool = dict(node.mempool)
    depth = node.chain.height - fork

    # shorter than ours: it cannot win, so it is dismissed unread
    assert _receive(node, world, _rival(node, world, fork, depth - 1)) == []
    assert replica_state(node.replica) == before

    # longer than ours, but its last block fails: all or nothing
    rival = _rival(node, world, fork, depth + 1)
    evil = _corrupt_block(rival[-1])
    got = _receive(node, world, rival[:-1] + (evil,))
    assert [(e["event"], e["height"], e["reason"], e["txid"]) for e in got] \
        == [("block_rejected", evil.height, "BAD_SIGNATURE",
             evil.txs[-1].txid.hex())]
    assert replica_state(node.replica) == before
    assert node.mempool == mempool


def test_a_discouraged_source_is_not_read_but_its_txs_are(settled):
    # a source of its own, so no other test's deliveries are ignored
    world, node, fork = settled
    depth = node.chain.height - fork
    rival = _rival(node, world, fork, depth + 1)
    evil = rival[:-1] + (_corrupt_block(rival[-1]),)
    start = len(world.events)
    _receive(node, world, evil, source="mallory")
    assert [(e["event"], e["source"]) for e in world.events[start:]] \
        == [("block_rejected", "mallory"), ("peer_discouraged", "mallory")]
    assert node.discouraged == {"mallory"}

    # a valid branch that would win is ignored unread, and nothing logged
    before = replica_state(node.replica)
    start = len(world.events)
    applies = []
    apply = node.replica.apply
    node.replica.apply = lambda blk: (applies.append(blk), apply(blk))
    assert _receive(node, world, rival, source="mallory") == []
    assert world.events[start:] == [] and applies == []
    assert replica_state(node.replica) == before

    # its transactions still reach the mempool
    tx = _fresh_registration(b"after")
    node.admit_tx(world, tx, source="mallory")
    assert tx.txid in node.mempool
    assert world.events[start:] == []


def test_winning_branches_switch_like_a_replay(settled):
    world, node, fork = settled
    old = list(node.chain.blocks)
    rival = _rival(node, world, fork, node.chain.height - fork + 1)
    got = _receive(node, world, rival)
    assert [(e["event"], e["old_height"], e["new_height"], e["depth"])
            for e in got] == [("fork_switch", len(old) - 1, len(rival) - 1,
                               len(old) - 1 - fork)]
    assert node.chain.blocks == list(rival)
    redo = replay_blocks(node.chain.blocks)
    assert replica_state(node.replica) == replica_state(redo)
    orphaned = [tx.txid for blk in old[fork + 1:] for tx in blk.txs]
    assert orphaned and all(t in node.mempool for t in orphaned)

    # a direct one-block extension is accepted; a longer one is a switch
    scratch = replay_blocks(node.chain.blocks)
    one = _extend(scratch, world)
    got = _receive(node, world, tuple(node.chain.blocks) + (one,))
    assert [(e["event"], e["height"], e["generator"]) for e in got] \
        == [("block_accepted", one.height, "test")]
    two = (_extend(scratch, world), _extend(scratch, world))
    got = _receive(node, world, tuple(node.chain.blocks) + two)
    assert [(e["event"], e["depth"]) for e in got] == [("fork_switch", 0)]
    assert node.chain.tip is two[-1]
    assert replica_state(node.replica) == replica_state(scratch)


def test_pop_then_reapply_equals_replay():
    world = run_cfg(base_cfg(seed=31, duration_ms=6000, actions=FLOW))
    blocks = world.canonical.chain.blocks
    assert {tx.kind for b in blocks[1:] for tx in b.txs} \
        >= {TxKind.TOKEN, TxKind.FEEDBACK}
    replica = replay_blocks(blocks)
    for k in (1, 3, len(blocks) - 1):
        for n in range(len(blocks) - 1, len(blocks) - 1 - k, -1):
            assert replica.pop() is blocks[n]
            redo = replay_blocks(blocks[:n])
            assert replica_state(replica) == replica_state(redo)
        for blk in blocks[len(blocks) - k:]:
            replica.apply(blk)
        assert replica_state(replica) \
            == replica_state(replay_blocks(blocks))

    # a corrupted block is refused whole: a bad tx signature names the tx,
    # a bad header signature names none
    tx_height = max(n for n, b in enumerate(blocks) if b.txs)
    bare_height = max(n for n, b in enumerate(blocks) if n and not b.txs)
    for n, txid, reason in (
            (tx_height, blocks[tx_height].txs[-1].txid, "BAD_SIGNATURE"),
            (bare_height, None, "BAD_HEADER_SIG")):
        replica = replay_blocks(blocks[:n])
        before = replica_state(replica)
        with pytest.raises(LedgerError) as caught:
            replica.apply(_corrupt_block(blocks[n]))
        got = caught.value
        assert (got.height, got.txid, got.reason) == (n, txid, reason)
        assert replica_state(replica) == before


def test_pack_txs_leaves_the_chain_as_found(monkeypatch):
    pack = Node._pack_txs
    picked = []

    def checked(node, world):
        before = chain_state(node.chain)
        txs = pack(node, world)
        assert chain_state(node.chain) == before
        picked.extend(txs)
        return txs

    monkeypatch.setattr(Node, "_pack_txs", checked)
    run_cfg(base_cfg(seed=31, duration_ms=6000, actions=FLOW))
    assert {tx.kind for tx in picked} >= {TxKind.TOKEN, TxKind.FEEDBACK}


def test_own_block_failing_on_reapply_raises(settled):
    world, node, fork = settled
    orphans = node.chain.blocks[fork + 1:]
    # longer than ours, so it is applied; its last block fails, so ours
    # are re-applied
    rival = _rival(node, world, fork, len(orphans) + 1)
    loser = rival[:-1] + (_corrupt_block(rival[-1]),)
    apply = node.replica.apply
    node.replica.apply = lambda blk: (_refuse(blk) if blk in orphans
                                      else apply(blk))
    _publish(world, loser)
    with pytest.raises(RuntimeError, match="rejected on re-apply: BAD_LINK"):
        node.receive_branch(world, loser[-1], source="test")


def test_a_shorter_branch_is_dismissed_before_any_apply(settled):
    world, node, fork = settled
    before = replica_state(node.replica)
    rival = _rival(node, world, fork, node.chain.height - fork - 1)
    corrupted = rival[:-1] + (_corrupt_block(rival[-1]),)
    applies = []
    apply = node.replica.apply
    node.replica.apply = lambda blk: (applies.append(blk), apply(blk))
    start = len(world.events)
    for branch in (rival, corrupted, tuple(node.chain.blocks[:fork + 1])):
        node.receive_branch(world, branch[-1], source="test")
    assert applies == [] and world.events[start:] == []
    assert replica_state(node.replica) == before


def test_a_second_block_under_a_stored_h_blk_raises():
    # h_blk leaves signatures out, so a corrupted copy shares it
    world = run_cfg(base_cfg(duration_ms=1500))
    node = world.nodes["alpha"]
    blk = node.chain.tip
    assert blk.height > 0 and world.blocks[blk.h_blk] is blk
    world.broadcast_block(node, (blk,))     # the same block again is fine
    evil = _corrupt_block(blk)
    with pytest.raises(RuntimeError, match="another block under stored"):
        world.broadcast_block(node, (evil,))
    assert world.blocks[blk.h_blk] is blk
