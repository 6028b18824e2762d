"""One branch's full state: chain, trust fold, and consensus validation.

A Replica owns a Chain plus the TrustState implied by that chain, and
advances only through apply(), which runs the complete validation stack
(consensus header checks, per-transaction checks, trust fold) exactly the
way every node and the offline verifier must agree on. Simulator nodes hold
one replica per branch they track; the ledger verifier replays a file
through a fresh replica from genesis.
"""

from __future__ import annotations

from . import consensus, crypto, ledger, trust
from .consensus import ConsensusParams
from .ledger import Block, Chain, LedgerError


class VerifyFailure(Exception):
    def __init__(self, height: int, txid: bytes | None, reason: str):
        self.height = height
        self.txid = txid
        self.reason = reason
        where = f"height {height}"
        if txid:
            where += f" tx {txid.hex()[:16]}"
        super().__init__(f"{reason} at {where}")


def params_from_genesis(genesis: Block) -> ConsensusParams:
    unpacked = ledger.unpack_genesis_pub(genesis.header.generator_pub)
    if unpacked is None:
        raise LedgerError("BAD_SIGNATURE", "genesis parameter block")
    interval_ms, slot_ms, k_bits, time_cap = unpacked
    return ConsensusParams(base_target=genesis.header.base_target,
                           k_bits=k_bits, block_interval_ms=interval_ms,
                           slot_ms=slot_ms, time_cap_intervals=time_cap)


class Replica:
    """Chain + trust state for one branch, advanced by full validation."""

    def __init__(self, genesis: Block, params: ConsensusParams | None = None,
                 overrides: dict[bytes, int] | None = None):
        try:
            self.chain = Chain(genesis)
            genesis_params = params_from_genesis(genesis)
        except LedgerError as exc:
            raise VerifyFailure(0, exc.txid, exc.reason) from None
        except ValueError:  # parameters out of ConsensusParams' range
            raise VerifyFailure(0, None, "BAD_SIGNATURE") from None
        self.params = params or genesis_params
        self.overrides = overrides or {}
        self.trust = trust.TrustState()
        self.last_reject_txid: bytes | None = None
        trust.fold_block(self.trust, genesis)

    def trust_for(self, address: bytes) -> int:
        return consensus.consensus_trust(self.trust, address, self.overrides)

    @property
    def tip(self) -> Block:
        return self.chain.tip

    @property
    def height(self) -> int:
        return self.chain.height

    def apply(self, blk: Block) -> str | None:
        """Validate and append one block; reason code on rejection."""
        self.last_reject_txid = None
        reason = consensus.validate_block(blk, self.params, self.chain,
                                          self.trust_for)
        if reason:
            return reason
        generator = crypto.address_of(blk.header.generator_pub)
        gen_trust = self.trust_for(generator)
        try:
            self.chain.apply_block(blk, gen_trust)
        except LedgerError as exc:
            self.last_reject_txid = exc.txid
            return exc.reason
        trust.fold_block(self.trust, blk)
        return None

    def clone(self) -> "Replica":
        other = object.__new__(Replica)
        other.params = self.params
        other.overrides = self.overrides
        other.chain = self.chain.clone()
        other.trust = self.trust.copy()
        other.last_reject_txid = None
        return other


def replay_blocks(blocks: list[Block],
                  overrides: dict[bytes, int] | None = None) -> Replica:
    """Rebuild a replica from serialized history; VerifyFailure on defects.

    This is the offline verification path: everything needed (consensus
    parameters, stakes, trust history) is recovered from the blocks alone.
    """
    if not blocks:
        raise VerifyFailure(0, None, "BAD_ENCODING")
    replica = Replica(blocks[0], overrides=overrides)
    for blk in blocks[1:]:
        reason = replica.apply(blk)
        if reason:
            raise VerifyFailure(blk.height, replica.last_reject_txid, reason)
    return replica
