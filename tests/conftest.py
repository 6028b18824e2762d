"""Shared builders for the test suite.

Most integration tests drive a whole World from a plain config dict; the
helpers here keep those dicts short. The criterion summary hook collects
one line per acceptance criterion and prints them after the run, outside
pytest's output capture.
"""

import heapq
import importlib.util
import pathlib
import sys

import pytest

from ctsim.scenario import load_config
from ctsim.sim import DELIVER_BLOCK, DELIVER_MSG, DELIVER_TX, World

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


def four_nodes():
    return [
        {"name": "alpha", "stake": 0.4, "weights": [0.6, 0.4]},
        {"name": "beta", "stake": 0.3},
        {"name": "gamma", "stake": 0.2},
        {"name": "delta", "stake": 0.1, "weights": [0.4, 0.6]},
    ]


def base_cfg(**overrides):
    cfg = {
        "seed": 7,
        "duration_ms": 10_000,
        "nodes": four_nodes(),
    }
    cfg.update(overrides)
    return cfg


def chain_state(chain) -> tuple:
    """Every index a Chain keeps, in a form that compares exactly; dicts
    are listed, so their insertion order counts too."""
    return (list(chain.blocks), list(chain.token_index.items()),
            list(chain.nonce_index), list(chain.txids),
            list(chain.feedback_seen), list(chain.registered.items()),
            list(chain.gen_records.items()), list(chain.cum_trust))


def trust_fingerprint(trust) -> tuple:
    """Canonical immutable image of a TrustState's pair tables and declared
    weights, for exact compares; insertion order does not count."""
    return tuple(tuple(sorted(t.items()))
                 for t in (trust.cred, trust.auth, trust.sat, trust.declared))


def replica_state(replica) -> tuple:
    """chain_state plus the trust fold, table order included, with the
    running sums the fold derives from its tables."""
    trust = replica.trust
    tables = (trust.cred, trust.auth, trust.sat, trust.declared,
              trust.cred_sum, trust.auth_sum, trust.sat_sum)
    return (chain_state(replica.chain), trust_fingerprint(trust),
            [list(t.items()) for t in tables])


def drain(world) -> None:
    """Flush in-flight deliveries past the horizon, without new slots.

    After run() stops the clock there may still be blocks and messages
    on the wire.  Letting those land (and nothing else: no ticks, no
    scripted actions) settles every replica on its final tip, which is
    what convergence checks want to compare.
    """
    deliver = (DELIVER_TX, DELIVER_BLOCK, DELIVER_MSG)
    while world._queue:
        at, _, kind, data = heapq.heappop(world._queue)
        if kind not in deliver:
            continue
        world.now = max(world.now, at)
        world._step(kind, data)


def perfbench_module(name: str):
    """Load perfbench/<name>.py without writing a bytecode cache there:
    the benchmark's directory is read, never written."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


def make_world(cfg_dict) -> World:
    return World(load_config(cfg_dict))


def run_cfg(cfg_dict) -> World:
    world = make_world(cfg_dict)
    world.run()
    return world


@pytest.fixture
def world_10s():
    """One plain honest run, shared by read-only assertions."""
    return run_cfg(base_cfg())
