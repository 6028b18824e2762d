"""Trust-weighted proof-of-stake: eligibility, generation, validation, forks.

A provider's proof of eligibility is a hash chain through its own generated
blocks: prf = H(pub || prf_old), re-rolled only when the provider actually
produces a block. The k-bit prefix of the candidate prf, read as a fraction
of 2^k, is compared against a per-provider difficulty

    d_csp = d * time_elapsed * stake_share * trust

which grows linearly while the provider waits, so every active provider
eventually crosses its own threshold. Comparisons happen on exact integers:
prefix * 10^12 < d_csp_fp * 2^k, making verdicts identical on every node.
"""

from __future__ import annotations

from typing import NamedTuple

from . import crypto
from .crypto import KeyPair, sha256
from .fixedpoint import ONE, fp_mul
from .ledger import Block, Chain, ConsensusParams, compute_tx_root
from .trust import BOOTSTRAP_TRUST

__all__ = [
    "CspConsensusState",
    "candidate_prf",
    "csp_difficulty",
    "elapsed_intervals",
    "check_eligibility",
    "seal_block",
    "validate_block",
    "resolve",
    "calibrate_base_target",
    "consensus_trust",
]


class CspConsensusState(NamedTuple):
    """Per-provider view needed for an eligibility decision."""
    stake: int                        # normalized share, fixed-point
    last_generated_ts: int
    prf_old: bytes


def _prefix_int(prf: bytes, k_bits: int) -> int:
    """First k bits of the digest as an integer in [0, 2^k)."""
    return int.from_bytes(prf[:k_bits // 8], "big")


def candidate_prf(pub: bytes, prf_old: bytes) -> bytes:
    return sha256(pub + prf_old)


def csp_difficulty(params: ConsensusParams, time_elapsed: int, stake: int,
                   trust: int) -> int:
    """d * time * stake * trust, fixed-point, clamped below 1."""
    d = fp_mul(fp_mul(fp_mul(params.base_target, time_elapsed), stake), trust)
    return min(d, ONE - 1)


def elapsed_intervals(now_ms: int, last_ms: int, params: ConsensusParams) -> int:
    """Block intervals since this provider's last generation, fixed-point.

    Measured from genesis for providers that have never generated; capped so
    a long-dormant provider cannot accumulate unbounded priority.
    """
    raw = (now_ms - last_ms) * ONE // params.block_interval_ms
    cap = params.time_cap_intervals * ONE
    return min(max(raw, 0), cap)


def _eligible(prf: bytes, d_csp: int, k_bits: int) -> bool:
    return _prefix_int(prf, k_bits) * ONE < d_csp << k_bits


def check_eligibility(params: ConsensusParams, state: CspConsensusState,
                      trust: int, pub: bytes, now_ms: int) -> bool:
    """Would a provider in this state at a tip lead the next block, as of
    now?"""
    prf = candidate_prf(pub, state.prf_old)
    time_elapsed = elapsed_intervals(now_ms, state.last_generated_ts, params)
    d_csp = csp_difficulty(params, time_elapsed, state.stake, trust)
    return _eligible(prf, d_csp, params.k_bits)


def seal_block(blk: Block, key: KeyPair) -> Block:
    """Sign a candidate's header, which carries every other field: its prf
    the candidate_prf, its timestamp the eligibility clock reading."""
    header = blk.header
    return Block(header._replace(sig=crypto.sign(key, header.h_blk)), blk.txs)


def consensus_state_at(chain: Chain, address: bytes) -> CspConsensusState:
    """Stake share and generation history for one provider at a tip."""
    reg = chain.registered.get(address)
    total = chain.total_declared_stake()
    share = reg.stake * ONE // total if reg and total > 0 else 0
    rec = chain.gen_record(address)
    return CspConsensusState(share, rec.last_timestamp, rec.prf_old)


def validate_block(blk: Block, parent_chain: Chain,
                   generator_trust: int) -> str | None:
    """Reason a block's header fails against its parent, or None: the one
    check of linkage and tx_root, then the consensus checks, under the
    parameters of the parent chain's genesis.

    generator_trust is the consensus trust of the block's generator at the
    parent state, as consensus_trust gives it.
    """
    params = parent_chain.params
    parent = parent_chain.tip
    h = blk.header
    if h.prev_block != parent.h_blk or h.height != parent.height + 1:
        return "BAD_LINK"
    if h.timestamp <= parent.header.timestamp:
        return "TIMESTAMP"
    if h.base_target != params.base_target:
        return "BASE_TARGET"
    if h.tx_root != compute_tx_root(blk.txs):
        return "BAD_TX_ROOT"
    generator = crypto.address_of(h.generator_pub)
    if generator not in parent_chain.registered:
        return "UNKNOWN_GENERATOR"
    state = consensus_state_at(parent_chain, generator)
    if h.prf != candidate_prf(h.generator_pub, state.prf_old):
        return "PRF_MISMATCH"
    if not check_eligibility(params, state, generator_trust, h.generator_pub,
                             h.timestamp):
        return "NOT_ELIGIBLE"
    if not crypto.verify(*h.sig_triple):
        return "BAD_HEADER_SIG"
    return None


def resolve(tips: list[tuple[int, int, bytes]]) -> tuple[int, int, bytes]:
    """Pick the unique winner among (height, cum_trust, tip digest) fork
    tips: height, then accumulated generator trust, then lexicographically
    smallest tip digest. Total order, so every node lands on the same tip
    given the same candidate set."""
    if not tips:
        raise ValueError("no fork tips to resolve")
    return min(tips, key=lambda t: (-t[0], -t[1], t[2]))


def consensus_trust(chain: Chain, trust_state, address: bytes) -> int:
    """Trust factor fed into difficulty: 0 if pinned, else computed, else 0.5.

    A provider whose REGISTER on this chain is pinned has trust 0, so it
    never generates. A provider nobody has interacted with yet has a
    computed trust of 0, which would bar it from generation forever; such
    providers run at the bootstrap value until history exists.
    """
    reg = chain.registered.get(address)
    if reg is not None and reg.pinned:
        return 0
    if not trust_state.has_history(address):
        return BOOTSTRAP_TRUST
    return trust_state.trust_of(address)


def calibrate_base_target(stakes: list[int], trusts: list[int]) -> int:
    """Pick d so the network produces about one block per target interval.

    Each provider's prefix draw is uniform; with difficulty growing
    linearly in elapsed time, its mean spacing is E[prefix]/(d*s*t) =
    1/(2*d*s*t) intervals, so the network rate is 2*d*sum(s*t) per
    interval. Setting that to one block per interval gives
    d = 1 / (2 * sum(stake_i * trust_i)), clamped inside (0, 1).
    """
    weighted = sum(fp_mul(s, t) for s, t in zip(stakes, trusts))
    if weighted <= 0:
        raise ValueError("no provider can ever generate (all stake*trust zero)")
    d = ONE * ONE // (2 * weighted)
    return max(1, min(d, ONE - 1))
