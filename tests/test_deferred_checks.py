"""Checks of a run's own signatures, taken off the simulation's path.

Inside World.run() a signature that this process made is answered valid
at once and checked for real later: in forked helpers while the run goes
on, or here when it ends. Whatever the helpers do, a run either writes
the bytes of a run that checks each signature at once, or raises
CryptoError, and it leaves no child process behind.
"""

import hashlib
import os

import pytest

from ctsim import crypto
from ctsim.crypto import CryptoError, KeyPair, generate_keypair, sha256
from ctsim.scenario import load_config
from ctsim.sim import World

from test_scenario_cli import PINNED, SCENARIOS, run_cli


@pytest.fixture
def forks(monkeypatch):
    """Count os.fork calls, with a clean memo restored afterwards."""
    saved = dict(crypto._verify_memo)
    crypto._verify_memo.clear()
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", counted)
    yield calls
    crypto._verify_memo.clear()
    crypto._verify_memo.update(saved)


def fan_out(monkeypatch, cpus: int, chunk: int = 4) -> None:
    """Claim `cpus` CPUs and hand owed checks out in chunks of `chunk`."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(crypto, "_OWED_CHUNK", chunk)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wrong_public_keys(monkeypatch) -> None:
    """Give every node but the last, once its run starts, a KeyPair whose
    public key belongs to another private key. Those nodes are then
    unregistered, so they only sign transactions, which the last checks
    as it generates every block."""
    real_run = World.run

    def run(self):
        for name in sorted(self.nodes)[:-1]:
            node = self.nodes[name]
            stranger = generate_keypair(sha256(name.encode()))
            node.key = KeyPair(node.key.private_key, stranger.public_key)
            node.address = stranger.address
        real_run(self)
    monkeypatch.setattr(World, "run", run)


def digests(out_dir) -> dict:
    return {art: hashlib.sha256((out_dir / art).read_bytes()).hexdigest()
            for art in PINNED["demo"]}


def dying_helpers(monkeypatch) -> None:
    counted_fork = os.fork

    def dying_helper():
        pid = counted_fork()
        if pid == 0:
            os._exit(1)     # before writing a single verdict
        return pid
    monkeypatch.setattr(os, "fork", dying_helper)


@pytest.mark.parametrize("helpers", ["working", "dying"])
def test_fanned_out_run_writes_the_pinned_bytes(helpers, forks, monkeypatch,
                                                tmp_path):
    fan_out(monkeypatch, 2)
    if helpers == "dying":
        dying_helpers(monkeypatch)
    code, out, err = run_cli("run", str(SCENARIOS / "demo.yaml"),
                             "--out-dir", str(tmp_path))
    assert code == 0, err
    assert len(forks) > 3
    assert digests(tmp_path) == PINNED["demo"]
    assert_no_child_left()


def test_run_raising_midway_kills_its_helpers(forks, monkeypatch):
    fan_out(monkeypatch, 2)
    opened = []

    class Recorded(crypto._OwnChecks):
        def __init__(self):
            super().__init__()
            opened.append(self)
    monkeypatch.setattr(crypto, "_OwnChecks", Recorded)
    real_step = World._step
    steps = []

    def step(self, kind, data):
        steps.append(1)
        if len(steps) == 400:
            raise RuntimeError("midway")
        real_step(self, kind, data)
    monkeypatch.setattr(World, "_step", step)
    world = World(load_config(SCENARIOS / "demo.yaml"))
    with pytest.raises(RuntimeError, match="midway"):
        world.run()
    assert forks
    assert_no_child_left()
    assert crypto._own is None
    # no verdict assumed and left unchecked stays in the memo
    [own] = opened
    assert own.owed
    assert not any(t in crypto._verify_memo for t in own.owed)
    memo = dict(crypto._verify_memo)
    assert memo == {t: crypto._verify_uncached(*t) for t in memo}


@pytest.mark.parametrize("cpus, helpers", [(1, "none"), (2, "working"),
                                           (2, "dying")])
def test_a_key_that_does_not_match_fails_the_run(cpus, helpers, forks,
                                                 monkeypatch, tmp_path):
    fan_out(monkeypatch, cpus)
    wrong_public_keys(monkeypatch)
    if helpers == "dying":
        dying_helpers(monkeypatch)
    with pytest.raises(CryptoError):
        World(load_config(SCENARIOS / "demo.yaml")).run()
    assert_no_child_left()
    assert bool(forks) == (cpus > 1)

    out_dir = tmp_path / "out"
    code, out, err = run_cli("run", str(SCENARIOS / "demo.yaml"),
                             "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith("run failed: ") and err.count("\n") == 1
    assert not any(out_dir.iterdir())
    assert_no_child_left()
