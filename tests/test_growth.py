"""Cost grows linearly with simulated duration.

The benchmark's crowd workload is run in-process at its own size and at
twice its users, requests and duration. Per canonical height, the exact
counts of the work a run does must stay flat: a term that grows with the
chain (a scan over every pair, every block or every tx) would double its
per-height count when the chain doubles, and fail the bound below. The
runs see one CPU, so the checks a run defers are made in this process
and the curve-op counts stay the whole work of the run.
"""

import os

from ctsim import crypto, ledger, replica
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
# measured ratio and stays well below that.
MAX_GROWTH = 1.3


def test_crowd_work_per_height_stays_flat_when_the_run_doubles(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    workloads = perfbench_module("workloads")   # a private copy to resize
    base = workloads.CROWD
    counts = {}

    def counted(owner, name, key):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(replica.Replica, "apply", "apply")
    counted(ledger.Chain, "validate_tx", "validate_tx")
    for op in ("scalar_base_mult", "scalar_mult", "shamir_mult"):
        counted(crypto, op, "curve")

    per_height = []
    for scale in (1, 2):
        workloads.CROWD = {**base, **{k: base[k] * scale for k in SCALED}}
        # a verify memo warmed by an earlier run would hide curve ops
        monkeypatch.setattr(crypto, "_verify_memo", {})
        counts.update(apply=0, validate_tx=0, curve=0)
        world = World(load_config(workloads.crowd(SEED)))
        world.run()
        chain = world.canonical.chain
        counts["journal"] = chain.journal.mark()
        per_height.append({k: n / chain.height for k, n in counts.items()})
    one, two = per_height
    growth = {k: two[k] / one[k] for k in one}
    assert all(n > 0 for n in one.values()), one
    assert max(growth.values()) <= MAX_GROWTH, (one, two, growth)
