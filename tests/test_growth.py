"""Cost grows linearly with simulated duration and with traffic.

The benchmark's crowd workload, and its split-heal workload with its
partitions, are run in-process at their own size and at twice their
users, requests and duration; a run with no requests is run at one and
at four times its duration. Per canonical height, the exact
counts of the work a run does must stay flat: a term that grows with the
chain (a scan over every pair, every block or every tx) would double its
per-height count when the chain doubles, and fail the bound below. The
runs see one CPU, so the checks a run defers are made in this process
and the curve-op counts stay the whole work of the run. Crowd is also run
at four times its requests over the same duration, where the counts per
canonical tx must stay flat in the same way. The bundled adversaries
scenario is run at two durations: a node reads no more blocks from a
source once it has rejected one, so the tamperer's rejected blocks do not
grow with the run, and applies per height stay near the honest cost.
"""

import os
import pathlib

from ctsim import crypto, ledger, replica
from ctsim.cli import read_config
from ctsim.scenario import load_config
from ctsim.sim import World

from conftest import perfbench_module

SEED = 28
SCALED = ("users", "requests", "duration_ms")

# per-height count at 2x over the same at 1x. Measured at seed 28: curve
# ops 15.77 -> 17.10 (1.08), validate_tx 37.52 -> 42.25 (1.13), applies
# 3.75 -> 3.46 (0.92), canonical journal entries 21.45 -> 23.69 (1.10).
# The chain grows 64 -> 115 blocks, so a per-height count linear in the
# chain would come out near 1.8; 1.3 leaves a 15% margin over the worst
# measured ratio and stays well below that. Split-heal's applies measured
# 8.51 -> 8.85 (1.04) as its chain grows 208 -> 353 blocks.
MAX_GROWTH = 1.3
# split-heal's applies per height at 1x, measured 8.51 at seed 28: a 17%
# margin, well below the 15.93 made while each branch shorter than the
# chain, which cannot win, was applied and the node's own blocks redone
MAX_SPLIT_HEAL_APPLIES = 10
# duration alone: four providers at 0.25 stake, no requests, seed 5, at 30 s
# and 120 s (height 89 and 385). Measured per height: curve ops 2.27 ->
# 2.29, applies 4.43 -> 4.78 (1.08), canonical journal entries 1.14 ->
# 1.03, blocks sent to World.broadcast_block 1.07 -> 1.13 (1.06). A
# per-height count linear in the chain would come out near 4.3, as blocks
# sent did (49.62 -> 220.19, 4.4) while each broadcast copied the chain.
DURATIONS_MS = (30_000, 120_000)
# requests alone: crowd at seed 28 with 1x and 4x its requests over the same
# 15 s (300 and 1 200 canonical txs, 0.48 s and 1.70 s in-process). Measured
# per canonical tx: validate_tx 8.49 -> 8.31 (0.98), curve ops 3.23 -> 2.82
# (0.87). A per-tx count linear in the txs would come out near 4.
REQUEST_SCALES = (1, 4)
# the tamperer alone: scenarios/adversaries.yaml at its own seed, 15 s and
# 30 s (height 25 and 45). Measured: the forger's blocks rejected 7 -> 7,
# one per receiver; applies per height 9.40 -> 8.78. While every forged
# block was read and rejected at every receiver, rejects went 896 -> 1 946
# and applies per height 48.64 -> 55.76. The bound leaves a 17% margin over
# 9.40.
ADVERSARIES = (pathlib.Path(__file__).resolve().parent.parent
               / "scenarios" / "adversaries.yaml")
ADVERSARIES_DURATIONS_MS = (15_000, 30_000)
MAX_ADVERSARIES_APPLIES = 11

APPLY = [(replica.Replica, "apply")]
CURVE = [(crypto, op) for op in
         ("scalar_base_mult", "scalar_mult", "shamir_mult")]


def _counting(monkeypatch, counters):
    """Count calls, on one CPU, to what counters names: a count's name to
    the (owner, attribute) pairs it counts. The dict the calls add to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    counts = dict.fromkeys(counters, 0)
    for key, targets in counters.items():
        for owner, name in targets:
            fn = getattr(owner, name)

            def wrapper(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)
    return counts


def _run(monkeypatch, counts, cfg):
    """Run cfg from zeroed counts; the world it ends in."""
    # a verify memo warmed by an earlier run would hide curve ops
    monkeypatch.setattr(crypto, "_verify_memo", {})
    counts.update(dict.fromkeys(counts, 0))
    world = World(load_config(cfg))
    world.run()
    return world


def _run_per_height(monkeypatch, counts, cfg):
    """Run cfg from zeroed counts; each count, and the canonical chain's
    journal entries, per canonical height."""
    chain = _run(monkeypatch, counts, cfg).canonical.chain
    counts["journal"] = chain.journal.mark()
    return {k: n / chain.height for k, n in counts.items()}


def _per_height(monkeypatch, workload, counters):
    """Run the perfbench workload at seed 28, at its own size and at twice
    SCALED; each count per canonical height, at 1x and 2x."""
    counts = _counting(monkeypatch, counters)
    workloads = perfbench_module("workloads")   # a private copy to resize
    sizes = {"crowd": "CROWD", "split-heal": "SPLIT_HEAL"}[workload]
    base = getattr(workloads, sizes)
    per_height = []
    for scale in (1, 2):
        setattr(workloads, sizes,
                {**base, **{k: base[k] * scale for k in SCALED}})
        per_height.append(_run_per_height(
            monkeypatch, counts, workloads.GENERATORS[workload](SEED)))
    return per_height


def test_crowd_work_per_height_stays_flat_when_the_run_doubles(monkeypatch):
    one, two = _per_height(monkeypatch, "crowd", {
        "apply": APPLY, "validate_tx": [(ledger.Chain, "validate_tx")],
        "curve": CURVE})
    growth = {k: two[k] / one[k] for k in one}
    assert all(n > 0 for n in one.values()), one
    assert max(growth.values()) <= MAX_GROWTH, (one, two, growth)


def test_split_heal_applies_per_height_stay_flat_when_the_run_doubles(
        monkeypatch):
    one, two = _per_height(monkeypatch, "split-heal", {"apply": APPLY})
    assert 0 < one["apply"] <= MAX_SPLIT_HEAL_APPLIES, one
    assert two["apply"] / one["apply"] <= MAX_GROWTH, (one, two)


def test_work_per_height_stays_flat_when_only_the_duration_grows(
        monkeypatch):
    counts = _counting(monkeypatch, {"apply": APPLY, "curve": CURVE})
    counts["sent"] = 0
    broadcast = World.broadcast_block

    def sending(world, origin, blocks):
        counts["sent"] += len(blocks)
        return broadcast(world, origin, blocks)
    monkeypatch.setattr(World, "broadcast_block", sending)
    nodes = [{"name": name, "stake": 0.25} for name in "abcd"]
    short, long = (_run_per_height(monkeypatch, counts, {
        "seed": 5, "duration_ms": ms, "nodes": nodes}) for ms in DURATIONS_MS)
    growth = {k: long[k] / short[k] for k in short}
    assert all(n > 0 for n in short.values()), short
    assert max(growth.values()) <= MAX_GROWTH, (short, long, growth)


def test_work_per_tx_stays_flat_when_only_the_requests_grow(monkeypatch):
    counts = _counting(monkeypatch, {
        "validate_tx": [(ledger.Chain, "validate_tx")], "curve": CURVE})
    workloads = perfbench_module("workloads")   # a private copy to resize
    base = workloads.CROWD
    per_tx = []
    for scale in REQUEST_SCALES:
        workloads.CROWD = {**base, "requests": base["requests"] * scale}
        chain = _run(monkeypatch, counts,
                     workloads.crowd(SEED)).canonical.chain
        txs = sum(len(blk.txs) for blk in chain.blocks[1:])
        per_tx.append({k: n / txs for k, n in counts.items()})
    low, high = per_tx
    growth = {k: high[k] / low[k] for k in low}
    assert all(n > 0 for n in low.values()), low
    assert max(growth.values()) <= MAX_GROWTH, (low, high, growth)


def test_a_tamperer_costs_each_receiver_one_rejection(monkeypatch):
    counts = _counting(monkeypatch, {"apply": APPLY})
    cfg = read_config(ADVERSARIES)
    tamperers = {n["name"] for n in cfg["nodes"]
                 if n.get("behavior") == "tamperer"}
    receivers = len(cfg["nodes"]) - 1
    rejected = []
    for ms in ADVERSARIES_DURATIONS_MS:
        world = _run(monkeypatch, counts, {**cfg, "duration_ms": ms})
        per_height = counts["apply"] / world.canonical.chain.height
        assert per_height <= MAX_ADVERSARIES_APPLIES, (ms, per_height)
        rejected.append(sum(1 for e in world.events
                            if e["event"] == "block_rejected"
                            and e["source"] in tamperers))
    assert tamperers and rejected[0] == rejected[1] <= receivers, rejected
