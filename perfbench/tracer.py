"""Layer tracing for a ctsim child process, installed from outside.

Every traced function is replaced at each namespace that binds it, so a
name pulled in with ``from ... import`` is wrapped as well (the curve
functions, for example, are bound under ``_ecbackend`` and ``crypto``).
Methods are replaced on their class. Spans stay in memory as
``[name, start, end, parent]`` and are written out once, at exit; the
benchmark derives self time from them. Counted functions only bump a
counter, because they run hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# metric prefix -> (module, attribute path); spans give .calls, .self_s
# and total time
SPANS = {
    "ecbackend.scalar_base_mult": ("_ecbackend", "scalar_base_mult"),
    "ecbackend.shamir_mult": ("_ecbackend", "shamir_mult"),
    "ecbackend.scalar_mult": ("_ecbackend", "scalar_mult"),
    "crypto.sign": ("crypto", "sign"),
    "crypto.verify": ("crypto", "verify"),
    "crypto.encrypt_for": ("crypto", "encrypt_for"),
    "ledger.validate_tx": ("ledger", "Chain.validate_tx"),
    "ledger.apply_block": ("ledger", "Chain.apply_block"),
    "ledger.ser_block": ("ledger", "ser_block"),
    "ledger.block_from_wire": ("ledger", "block_from_wire"),
    "ledger.write_ledger": ("ledger", "write_ledger"),
    "ledger.read_ledger": ("ledger", "read_ledger"),
    "consensus.validate_block": ("consensus", "validate_block"),
    "consensus.check_eligibility": ("consensus", "check_eligibility"),
    "consensus.consensus_trust": ("consensus", "consensus_trust"),
    "trust.fold_block": ("trust", "fold_block"),
    "trust.apply_feedback": ("trust", "TrustState.apply_feedback"),
    "replica.apply": ("replica", "Replica.apply"),
    "replica.replay_blocks": ("replica", "replay_blocks"),
    "sim.receive_branch": ("sim", "Node.receive_branch"),
    "sim.side_replica": ("sim", "Node._side_replica"),
    "sim.try_generate": ("sim", "Node.try_generate"),
    "sim.admit_tx": ("sim", "Node.admit_tx"),
    "sim.log_event": ("sim", "World.log_event"),
    "federation.on_message": ("federation", "on_message"),
    "federation.on_canonical_change": ("federation", "on_canonical_change"),
    "federation.run_action": ("federation", "run_action"),
    "report.build_report": ("report", "build_report"),
    "report.dump_events": ("report", "dump_events"),
    "report.load_events": ("report", "load_events"),
    "scenario.load_config": ("scenario", "load_config"),
}

# metric prefix -> (module, attribute path); only .calls
COUNTS = {
    "ledger.canonical_serialize": ("ledger", "canonical_serialize"),
    "ledger.parse_feedback": ("ledger", "parse_feedback"),
    "consensus.resolve": ("consensus", "resolve"),
    "replica.init": ("replica", "Replica.__init__"),
    "sim.step": ("sim", "World._step"),
    "sim.broadcast_block": ("sim", "World.broadcast_block"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {"sim.broadcast_block.branch_blocks": 0}

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            _patch(module, path, self._span_wrapper(name))
        for name, (module, path) in COUNTS.items():
            _patch(module, path, self._count_wrapper(name))

    def _span_wrapper(self, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(rec)
                rec[1] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec[2] = clock()
                    stack.pop()
            return wrapper
        return make

    def _count_wrapper(self, name: str):
        counts = self.counts
        key = f"{name}.calls"
        counts[key] = 0
        branch = name == "sim.broadcast_block"

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                if branch:
                    counts["sim.broadcast_block.branch_blocks"] += len(args[2])
                return fn(*args, **kwargs)
            return wrapper
        return make

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)


def _patch(module: str, path: str, make) -> None:
    """Wrap a method on its class, or a function at every ctsim namespace
    that binds it."""
    owner = sys.modules[f"ctsim.{module}"]
    *cls, attr = path.split(".")
    if cls:
        owner = getattr(owner, cls[0])
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(owner, attr)
    wrapper = make(original)
    bound = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "ctsim" and not modname.startswith("ctsim."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"ctsim.{module}.{attr} is bound nowhere")


def layer_times(trace: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; spans are recorded at entry, so a parent precedes its
    children in the list.
    """
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
           for name in trace["names"]}
    for i, (name_id, start, end, parent) in enumerate(spans):
        row = out[trace["names"][name_id]]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return out
