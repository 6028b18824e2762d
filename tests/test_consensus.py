"""Eligibility lottery, block validation order, fork choice, calibration."""

from dataclasses import replace

import pytest

from ctsim.crypto import DetRng, generate_keypair, sha256
from ctsim.fixedpoint import ONE, fp_from
from ctsim.consensus import (
    CspConsensusState, _prefix_int, calibrate_base_target, candidate_prf,
    check_eligibility, consensus_state_at, consensus_trust, csp_difficulty,
    elapsed_intervals, resolve, seal_block, validate_block,
)
from ctsim.ledger import (
    Block, BlockHeader, Chain, ConsensusParams, Journal, RegisterData,
    build_register_tx, compute_tx_root, make_genesis,
)
from ctsim.trust import BOOTSTRAP_TRUST, TrustState

fp = fp_from

ALPHA = generate_keypair(DetRng(801, b"alpha").take(32))
BETA = generate_keypair(DetRng(801, b"beta").take(32))
OUTSIDER = generate_keypair(DetRng(801, b"out").take(32))


def params_with(base="0.9", **kw):
    return ConsensusParams(base_target=fp(base), **kw)


def two_node_chain(base="0.9") -> Chain:
    regs = [build_register_tx(k, RegisterData(fp("0.5"), fp("0.5"),
                                              fp("0.5")))
            for k in (ALPHA, BETA)]
    return Chain(make_genesis(regs, fp(base)))


def candidate(chain: Chain, key, ts: int, txs=()) -> Block:
    txs = tuple(txs)
    prf_old = consensus_state_at(chain, key.address).prf_old
    header = BlockHeader(
        height=chain.height + 1, prev_block=chain.tip.h_blk,
        tx_root=compute_tx_root(txs), timestamp=ts,
        generator_pub=key.pub_bytes, prf=candidate_prf(key.pub_bytes, prf_old),
        base_target=chain.params.base_target, sig=b"\x00" * 64)
    return Block(header, txs)


def sealed_block(chain: Chain, key) -> Block:
    """Walk the clock forward until the key wins a slot, then seal."""
    params = chain.params
    state = consensus_state_at(chain, key.address)
    ts = chain.tip.header.timestamp
    while True:
        ts += params.slot_ms
        if check_eligibility(params, state, BOOTSTRAP_TRUST, key.pub_bytes,
                             ts):
            return seal_block(candidate(chain, key, ts), key)
        assert ts < 10_000_000, "no eligible slot found"


# ---------------------------------------------------------------------------
# The lottery pieces
# ---------------------------------------------------------------------------

def test_prefix_value_edges():
    assert _prefix_int(b"\x00" * 32, 64) == 0
    assert _prefix_int(b"\x80" + b"\x00" * 31, 64) == 2 ** 63
    assert _prefix_int(b"\xff" * 32, 64) == 2 ** 64 - 1
    assert _prefix_int(b"\xff" * 32, 128) == 2 ** 128 - 1
    assert 0 <= _prefix_int(sha256(b"x"), 64) < 2 ** 64


def test_candidate_prf_is_hash_chained():
    prf_old = sha256(b"previous")
    assert candidate_prf(ALPHA.pub_bytes, prf_old) \
        == sha256(ALPHA.pub_bytes + prf_old)
    assert candidate_prf(ALPHA.pub_bytes, prf_old) \
        != candidate_prf(BETA.pub_bytes, prf_old)


def test_csp_difficulty_hand_value():
    p = params_with("0.1")
    assert csp_difficulty(p, 2 * ONE, fp("0.5"), fp("0.8")) == fp("0.08")


def test_csp_difficulty_clamps_below_one():
    p = params_with("0.9")
    assert csp_difficulty(p, 64 * ONE, ONE, ONE) == ONE - 1
    assert csp_difficulty(p, 0, ONE, ONE) == 0
    assert csp_difficulty(p, 2 * ONE, ONE, 0) == 0


def test_elapsed_intervals():
    p = params_with()
    assert elapsed_intervals(600, 0, p) == 2 * ONE
    assert elapsed_intervals(450, 0, p) == ONE * 3 // 2
    assert elapsed_intervals(0, 600, p) == 0          # clock never negative
    assert elapsed_intervals(10 ** 9, 0, p) == 64 * ONE   # dormancy cap
    tight = params_with(time_cap_intervals=4)
    assert elapsed_intervals(10 ** 9, 0, tight) == 4 * ONE


def test_eligibility_boundary_is_exclusive():
    p = params_with("0.5", time_cap_intervals=64)
    state = CspConsensusState(ONE, 0, b"\x00" * 32)
    # engineered prefixes: d_csp == 0.5 at one elapsed interval and full
    # stake/trust, so the cutoff sits exactly at 2^63
    from ctsim.consensus import _eligible
    d = csp_difficulty(p, ONE, ONE, ONE)
    assert d == fp("0.5")
    at_cut = (2 ** 63).to_bytes(8, "big") + b"\x00" * 24
    below = (2 ** 63 - 1).to_bytes(8, "big") + b"\x00" * 24
    assert not _eligible(at_cut, d, 64)
    assert _eligible(below, d, 64)
    assert not _eligible(b"\x00" * 32, 0, 64)   # zero difficulty blocks all


def test_zero_trust_never_eligible():
    p = params_with("0.9")
    state = CspConsensusState(ONE, 0, sha256(b"seed"))
    for slot in range(200):
        assert not check_eligibility(p, state, 0, ALPHA.pub_bytes,
                                     100 * (slot + 1))


def test_eligibility_rate_tracks_difficulty():
    # frequency over fresh uniform prfs approximates d_csp within 20%
    p = params_with("0.1")
    state = CspConsensusState(fp("0.5"), 0, b"")
    rng = DetRng(661, b"mc")
    hits = 0
    trials = 10_000
    for _ in range(trials):
        state = replace(state, prf_old=rng.take(32))
        hits += check_eligibility(p, state, fp("0.8"), ALPHA.pub_bytes, 600)
    target = 0.08 * trials
    assert 0.8 * target <= hits <= 1.2 * target, hits


# ---------------------------------------------------------------------------
# Block generation and validation
# ---------------------------------------------------------------------------

def test_generate_then_validate_round_trip():
    chain = two_node_chain()
    assert chain.params == params_with("0.9")
    blk = sealed_block(chain, ALPHA)
    assert validate_block(blk, chain, BOOTSTRAP_TRUST) is None
    chain.apply_block(blk, BOOTSTRAP_TRUST)
    assert chain.height == 1
    # prf chain advances: the next block's prf hashes the previous one
    nxt = sealed_block(chain, ALPHA)
    assert nxt.header.prf == candidate_prf(ALPHA.pub_bytes, blk.header.prf)


def test_validate_block_reason_order():
    chain = two_node_chain()
    trust = BOOTSTRAP_TRUST
    good = sealed_block(chain, ALPHA)

    bad_link = Block(replace(good.header, prev_block=b"\x09" * 32), good.txs)
    assert validate_block(bad_link, chain, trust) == "BAD_LINK"

    stale = Block(replace(good.header, timestamp=0), good.txs)
    assert validate_block(stale, chain, trust) == "TIMESTAMP"

    wrong_base = Block(replace(good.header, base_target=fp("0.5")), good.txs)
    assert validate_block(wrong_base, chain, trust) == "BASE_TARGET"

    wrong_root = Block(replace(good.header, tx_root=b"\x09" * 32), good.txs)
    assert validate_block(wrong_root, chain, trust) == "BAD_TX_ROOT"

    foreign = Block(replace(good.header, generator_pub=OUTSIDER.pub_bytes),
                    good.txs)
    assert validate_block(foreign, chain, trust) == "UNKNOWN_GENERATOR"

    wrong_prf = Block(replace(good.header, prf=sha256(b"not it")), good.txs)
    assert validate_block(wrong_prf, chain, trust) == "PRF_MISMATCH"

    sig = bytearray(good.header.sig)
    sig[0] ^= 1
    forged = Block(replace(good.header, sig=bytes(sig)), good.txs)
    assert validate_block(forged, chain, trust) == "BAD_HEADER_SIG"


def test_validate_block_catches_ineligible_timestamp():
    chain = two_node_chain()
    p = chain.params
    state = consensus_state_at(chain, ALPHA.address)
    # find a slot where the prf loses the draw, then present it anyway
    from ctsim.consensus import _eligible, csp_difficulty as diff
    prf = candidate_prf(ALPHA.pub_bytes, state.prf_old)
    ts = None
    for slot in range(1, 2000):
        t = slot * p.slot_ms
        d = diff(p, elapsed_intervals(t, 0, p), state.stake, BOOTSTRAP_TRUST)
        if not _eligible(prf, d, p.k_bits):
            ts = t
            break
    assert ts is not None, "prf wins every slot; cannot build the case"
    blk = candidate(chain, ALPHA, ts)
    header = replace(blk.header, prf=prf)
    import ctsim.crypto as crypto
    sealed = Block(replace(header, sig=crypto.sign(ALPHA, header.h_blk)), ())
    assert validate_block(sealed, chain, BOOTSTRAP_TRUST) == "NOT_ELIGIBLE"


# ---------------------------------------------------------------------------
# Fork choice
# ---------------------------------------------------------------------------

def test_resolve_total_order():
    low = (3, fp("0.9"), b"\x01" * 32)
    high = (4, fp("0.1"), b"\xff" * 32)
    assert resolve([low, high]) is high          # height dominates

    heavy = (4, fp("0.8"), b"\xff" * 32)
    assert resolve([high, heavy]) is heavy       # trust breaks height ties

    twin_a = (4, fp("0.8"), b"\xaa" * 32)
    twin_b = (4, fp("0.8"), b"\xbb" * 32)
    assert resolve([twin_b, twin_a]) is twin_a   # digest breaks full ties
    assert resolve([twin_a]) is twin_a

    with pytest.raises(ValueError):
        resolve([])


# ---------------------------------------------------------------------------
# Trust feed and calibration
# ---------------------------------------------------------------------------

def test_consensus_trust_sources():
    chain = two_node_chain()
    regs = [build_register_tx(k, RegisterData(fp("0.5"), fp("0.5"), fp("0.5"),
                                              pinned=k is ALPHA))
            for k in (ALPHA, BETA)]
    pinned = Chain(make_genesis(regs, fp("0.9")))
    st = TrustState(Journal())
    st.register(ALPHA.address, fp("0.5"), fp("0.5"))
    st.register(BETA.address, fp("0.5"), fp("0.5"))
    assert consensus_trust(chain, st, ALPHA.address) == BOOTSTRAP_TRUST
    assert consensus_trust(pinned, st, ALPHA.address) == 0
    st.put(st.auth, st.auth_sum, (BETA.address, ALPHA.address), fp("0.8"))
    assert consensus_trust(chain, st, ALPHA.address) \
        == st.trust_of(ALPHA.address)
    assert consensus_trust(pinned, st, ALPHA.address) == 0   # beats history
    assert consensus_trust(chain, st, BETA.address) == BOOTSTRAP_TRUST
    assert consensus_trust(pinned, st, BETA.address) == BOOTSTRAP_TRUST


def test_calibrate_base_target():
    stakes = [fp("0.4"), fp("0.3"), fp("0.2"), fp("0.1")]
    even = [ONE] * 4
    assert calibrate_base_target(stakes, even) == fp("0.5")
    halves = [fp("0.5")] * 4
    assert calibrate_base_target(stakes, halves) == ONE - 1   # clamped
    assert calibrate_base_target([fp("0.001")], [fp("0.001")]) == ONE - 1
    with pytest.raises(ValueError):
        calibrate_base_target([0, 0], [ONE, ONE])
    # exact formula on an interior case
    weighted = sum(s * t // ONE for s, t in zip(stakes, even))
    assert calibrate_base_target(stakes, even) == ONE * ONE // (2 * weighted)


def test_consensus_state_for_newcomer():
    chain = two_node_chain()
    state = consensus_state_at(chain, ALPHA.address)
    assert state.stake == fp("0.5")              # normalized share
    assert state.last_generated_ts == 0          # genesis clock
    assert state.prf_old == sha256(chain.genesis.h_blk + ALPHA.address)
    ghost = consensus_state_at(chain, OUTSIDER.address)
    assert ghost.stake == 0
