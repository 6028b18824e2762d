"""Signature checks fanned out over CPUs ahead of a ledger replay.

`ctsim verify` checks every signature of a ledger in forked helpers, one
per extra CPU, before it replays the ledger. The memo is warm in most
tests, so nothing forks unless a test clears it and claims more CPUs.
Whatever the helpers do, the verdict must be the one-CPU verdict.
"""

import contextlib
import io
import os
from dataclasses import replace

import pytest

from ctsim import crypto
from ctsim.cli import main
from ctsim.ledger import Block, read_ledger, write_ledger
from ctsim.scenario import load_config
from ctsim.sim import World

from test_scenario_cli import SCENARIOS


def _flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def _with_tx(blk: Block, n: int, **fields) -> Block:
    txs = list(blk.txs)
    txs[n] = replace(txs[n], **fields)
    return Block(blk.header, tuple(txs))


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    """The demo ledger and copies with one fault each, by name."""
    world = World(load_config(SCENARIOS / "demo.yaml"))
    world.run()
    blocks = list(world.canonical.chain.blocks)
    first = next(h for h, b in enumerate(blocks) if h and b.txs)
    last = max(h for h, b in enumerate(blocks) if b.txs)

    header_sig = list(blocks)
    hdr = blocks[1].header
    # r's low bit: the signature stays well-formed, so the kernel runs
    header_sig[1] = Block(replace(hdr, sig=_flip(hdr.sig, 31)),
                          blocks[1].txs)
    tx_sig = list(blocks)
    tx = blocks[last].txs[-1]
    tx_sig[last] = _with_tx(blocks[last], -1, sig=_flip(tx.sig, 31))
    sender_pub = list(blocks)
    tx = blocks[first].txs[0]
    sender_pub[first] = _with_tx(blocks[first], 0,
                                 sender_pub=_flip(tx.sender_pub, 5))

    out = tmp_path_factory.mktemp("fanout")
    paths = {}
    for name, blks in [("pristine", blocks), ("header-sig", header_sig),
                       ("tx-sig", tx_sig), ("sender-pub", sender_pub)]:
        paths[name] = out / f"{name}.bin"
        write_ledger(paths[name], blks)
    return paths


@pytest.fixture
def forks(monkeypatch):
    """Count os.fork calls; restore the memo afterwards."""
    saved = dict(crypto._verify_memo)
    calls = []
    real_fork = os.fork

    def counted():
        calls.append(1)
        return real_fork()
    monkeypatch.setattr(os, "fork", counted)
    yield calls
    crypto._verify_memo.clear()
    crypto._verify_memo.update(saved)


def verdict(monkeypatch, path, cpus: int, cold: bool = True) -> str:
    """The line `ctsim verify` prints, with `cpus` CPUs available."""
    if cold:
        crypto._verify_memo.clear()
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", str(path)])
    line = out.getvalue()
    assert code == (0 if line.startswith("OK ") else 1), line
    return line


NAMES = ["pristine", "header-sig", "tx-sig", "sender-pub"]


@pytest.mark.parametrize("name", NAMES)
def test_fanout_verdict_equals_one_cpu(name, ledgers, forks, monkeypatch):
    alone = verdict(monkeypatch, ledgers[name], 1)
    assert not forks
    expected = {"pristine": "OK height=", "header-sig": "FAIL height=1 ",
                "tx-sig": "reason=BAD_SIGNATURE",
                "sender-pub": "reason=BAD_TXID"}[name]
    assert expected in alone
    for cpus in (2, 3, 4):
        forks.clear()
        assert verdict(monkeypatch, ledgers[name], cpus) == alone
        # the demo ledger holds 61 signatures: at most three shares of 16
        assert len(forks) == min(cpus, 3) - 1


@pytest.mark.parametrize("name", NAMES)
def test_failed_fork_keeps_the_verdict(name, ledgers, forks, monkeypatch):
    alone = verdict(monkeypatch, ledgers[name], 1)

    def no_fork():
        forks.append(1)
        raise OSError("fork refused")
    monkeypatch.setattr(os, "fork", no_fork)
    assert verdict(monkeypatch, ledgers[name], 4) == alone
    assert len(forks) == 2


@pytest.mark.parametrize("code", [1, 0], ids=["exit-1", "no-output"])
@pytest.mark.parametrize("name", NAMES)
def test_failed_helper_keeps_the_verdict(name, code, ledgers, forks,
                                         monkeypatch):
    alone = verdict(monkeypatch, ledgers[name], 1)
    counted_fork = os.fork

    def dying_helper():
        pid = counted_fork()
        if pid == 0:
            os._exit(code)  # before writing a single verdict
        return pid
    monkeypatch.setattr(os, "fork", dying_helper)
    assert verdict(monkeypatch, ledgers[name], 2) == alone
    assert len(forks) == 1


def test_memoized_replay_forks_nothing(ledgers, forks, monkeypatch):
    first = verdict(monkeypatch, ledgers["pristine"], 4)
    assert len(forks) == 2
    forks.clear()
    assert verdict(monkeypatch, ledgers["pristine"], 4, cold=False) == first
    assert not forks


def test_helpers_are_reaped_when_the_parent_share_raises(ledgers, forks,
                                                          monkeypatch):
    blocks = read_ledger(ledgers["pristine"])
    triples = [t for b in blocks[1:]
               for t in (b.header.sig_triple, *(x.sig_triple for x in b.txs))]
    crypto._verify_memo.clear()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    parent, real_check = os.getpid(), crypto._verify_uncached
    pids = []
    counted_fork = os.fork

    def recorded_fork():
        pid = counted_fork()
        pids.append(pid)
        return pid

    def check(*triple):
        if os.getpid() == parent:
            raise RuntimeError("parent share failed")
        return real_check(*triple)
    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(crypto, "_verify_uncached", check)
    with pytest.raises(RuntimeError):
        crypto.verify_many(triples)
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ChildProcessError):  # already reaped
            os.waitpid(pid, os.WNOHANG)
    assert not crypto._verify_memo
