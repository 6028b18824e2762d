"""Checks of a run's own signatures, taken off the simulation's path.

Inside World.run() a signature that this process made is answered valid
at once and checked for real later: by one checker process that reads
them as the run goes on, or here when it ends. A tamperer's corrupted
copy is checked at once. Whatever the checker does, a run either writes
the bytes of a run that checks each signature at once, or raises
CryptoError, and it leaves no child process behind.
"""

import hashlib
import os

import pytest

from ctsim import crypto, sim
from ctsim.cli import read_config
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


def claim_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))


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


def corrupted_copies(monkeypatch) -> list:
    """The triples the tamperer's corrupted copies carry, as it makes them."""
    made = []
    real_corrupt = sim._corrupt_block

    def corrupt(blk):
        bad = real_corrupt(blk)
        made.append((bad.txs[-1] if bad.txs else bad.header).sig_triple)
        return bad
    monkeypatch.setattr(sim, "_corrupt_block", corrupt)
    return made


def digests(out_dir, name: str) -> dict:
    return {art: hashlib.sha256((out_dir / art).read_bytes()).hexdigest()
            for art in PINNED[name]}


def dying_checkers(monkeypatch) -> None:
    counted_fork = os.fork

    def dying_checker():
        pid = counted_fork()
        if pid == 0:
            os._exit(1)     # before reading a single triple
        return pid
    monkeypatch.setattr(os, "fork", dying_checker)


@pytest.mark.parametrize("helpers", ["working", "dying"])
def test_fanned_out_run_writes_the_pinned_bytes(helpers, forks, monkeypatch,
                                                tmp_path):
    claim_cpus(monkeypatch, 2)
    if helpers == "dying":
        dying_checkers(monkeypatch)
    code, out, err = run_cli("run", str(SCENARIOS / "adversaries.yaml"),
                             "--out-dir", str(tmp_path))
    assert code == 0, err
    assert len(forks) == 1      # one checker for the whole run
    assert digests(tmp_path, "adversaries") == PINNED["adversaries"]
    assert_no_child_left()


def test_run_raising_midway_kills_its_helpers(forks, monkeypatch):
    config = load_config(read_config(SCENARIOS / "adversaries.yaml"))
    real_step = World._step
    steps = []

    def step(self, kind, data):
        steps.append(1)
        if len(steps) == midway:
            raise RuntimeError("midway")
        real_step(self, kind, data)
    monkeypatch.setattr(World, "_step", step)
    # midway through the steps of a run that is not stopped, made on one
    # CPU and with its verdicts taken back out of the memo
    claim_cpus(monkeypatch, 1)
    midway = None
    World(config).run()
    midway = len(steps) // 2
    steps.clear()
    crypto._verify_memo.clear()

    claim_cpus(monkeypatch, 2)
    opened = []

    class Recorded(crypto._OwnChecks):
        def __init__(self):
            super().__init__()
            opened.append(self)
    monkeypatch.setattr(crypto, "_OwnChecks", Recorded)
    world = World(config)
    with pytest.raises(RuntimeError, match="midway"):
        world.run()
    assert len(forks) == 1
    assert_no_child_left()
    assert crypto._own is None
    # no verdict assumed and left unchecked stays in the memo
    [own] = opened
    assert own.owed
    assert not any(t in crypto._verify_memo for t in own.owed)
    memo = dict(crypto._verify_memo)
    assert memo == {t: crypto._verify_uncached(*t) for t in memo}


CHECKERS = [(1, "none"), (2, "working"), (2, "dying")]


@pytest.mark.parametrize("cpus, helpers", CHECKERS)
def test_a_key_that_does_not_match_fails_the_run(cpus, helpers, forks,
                                                 monkeypatch, tmp_path):
    claim_cpus(monkeypatch, cpus)
    wrong_public_keys(monkeypatch)
    if helpers == "dying":
        dying_checkers(monkeypatch)
    with pytest.raises(CryptoError):
        World(load_config(read_config(SCENARIOS / "demo.yaml"))).run()
    assert_no_child_left()
    assert len(forks) == (cpus > 1)

    out_dir = tmp_path / "out"
    code, out, err = run_cli("run", str(SCENARIOS / "demo.yaml"),
                             "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith("run failed: ") and err.count("\n") == 1
    assert not any(out_dir.iterdir())
    assert_no_child_left()


@pytest.mark.parametrize("cpus, checker", CHECKERS)
def test_a_corrupted_copy_is_checked_at_once(cpus, checker, forks,
                                             monkeypatch, tmp_path):
    claim_cpus(monkeypatch, cpus)
    corrupted = corrupted_copies(monkeypatch)
    if checker == "dying":
        dying_checkers(monkeypatch)
    opened = []

    class Recorded(crypto._OwnChecks):
        def __init__(self):
            super().__init__()
            opened.append(self)
    monkeypatch.setattr(crypto, "_OwnChecks", Recorded)
    code, out, err = run_cli("run", str(SCENARIOS / "adversaries.yaml"),
                             "--out-dir", str(tmp_path))
    assert code == 0, err
    assert digests(tmp_path, "adversaries") == PINNED["adversaries"]
    # each copy a peer read was answered invalid by a check made then, and
    # none is among the checks owed
    [own] = opened
    assert corrupted and not set(corrupted) & set(own.owed)
    assert {crypto._verify_memo.get(t) for t in corrupted} == {False}
    assert len(forks) == (cpus > 1)
    assert_no_child_left()
