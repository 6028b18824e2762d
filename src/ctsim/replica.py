"""A node's full state: chain, trust fold, and consensus validation.

A Replica owns a Chain plus the TrustState implied by that chain; the
consensus parameters it validates against come from the genesis block
alone. It advances only through apply(), which runs the complete
validation stack (consensus header checks, per-transaction checks, trust
fold) exactly the way every node and the offline verifier must agree on,
and raises VerifyFailure on a rejected block. It retreats only through
pop(), the exact undo of the latest apply(). A simulator node holds one
replica and handles a competing branch by popping to the fork point and
applying the branch's blocks; the ledger verifier replays a file through
a fresh replica from genesis.
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
    """Chain + trust state, advanced by full validation, undone per block.

    overrides maps provider addresses to pinned consensus trust. The dict
    is kept, not copied, so a pin its owner adds later applies here too.
    """

    def __init__(self, genesis: Block,
                 overrides: dict[bytes, int] | None = None):
        try:
            self.chain = Chain(genesis)
            self.params = params_from_genesis(genesis)
        except LedgerError as exc:
            raise VerifyFailure(0, exc.txid, exc.reason) from None
        except ValueError:  # parameters out of ConsensusParams' range
            raise VerifyFailure(0, None, "BAD_SIGNATURE") from None
        self.overrides = {} if overrides is None else overrides
        self.trust = trust.TrustState()
        trust.fold_block(self.trust, genesis)
        # per height above genesis: the trust journal mark before its fold
        self._trust_marks: list[int] = []

    def trust_for(self, address: bytes) -> int:
        return consensus.consensus_trust(self.trust, address, self.overrides)

    def apply(self, blk: Block) -> None:
        """Validate and append one block; VerifyFailure on rejection, with
        the txid of the failing transaction, None for header failures."""
        gen_trust = self.trust_for(crypto.address_of(blk.header.generator_pub))
        reason = consensus.validate_block(blk, self.params, self.chain,
                                          gen_trust)
        if reason:
            raise VerifyFailure(blk.height, None, reason)
        try:
            self.chain.apply_block(blk, gen_trust)
        except LedgerError as exc:
            raise VerifyFailure(blk.height, exc.txid, exc.reason) from None
        self._trust_marks.append(self.trust.mark())
        trust.fold_block(self.trust, blk)

    def pop(self) -> Block:
        """Undo the latest apply(): chain indices and trust fold, exactly."""
        blk = self.chain.pop_block()
        self.trust.undo(self._trust_marks.pop())
        return blk


def replay_blocks(blocks: list[Block],
                  overrides: dict[bytes, int] | None = None) -> Replica:
    """Rebuild a replica from serialized history; VerifyFailure on defects.

    This is the offline verification path: everything needed (consensus
    parameters, stakes, trust history) is recovered from the blocks alone.
    Every signature the replay may check is checked up front on all CPUs;
    the replay then finds the verdicts memoized, so its order, its
    failure reasons and its result are those of a one-CPU replay.
    """
    if not blocks:
        raise VerifyFailure(0, None, "BAD_ENCODING")
    crypto.verify_many(triple for blk in blocks[1:]
                       for triple in (blk.header.sig_triple,
                                      *(tx.sig_triple for tx in blk.txs)))
    replica = Replica(blocks[0], overrides)
    for blk in blocks[1:]:
        replica.apply(blk)
    return replica
