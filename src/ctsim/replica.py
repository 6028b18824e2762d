"""A node's full state: chain, trust fold, and consensus validation.

A Replica owns a Chain plus the TrustState implied by that chain; the
chain holds the consensus parameters, read from its genesis alone. It
advances only through apply(), which runs the complete validation stack
(consensus header checks, per-transaction checks, trust fold) exactly
the way every node and the offline verifier must agree on, and raises
LedgerError on a rejected block. It retreats only through pop(), the
exact undo of the latest apply(). A simulator node holds one replica and
handles a competing branch by popping to the fork point and applying the
branch's blocks; the ledger verifier replays a file through a fresh
replica from genesis.
"""

from __future__ import annotations

from . import consensus, crypto, trust
from .ledger import Block, Chain, LedgerError


class Replica:
    """Chain + trust state, advanced by full validation, undone per block.

    Every consensus input, a provider's trust pin included, is read from
    the chain this replica holds. The trust fold writes through the
    chain's journal, so chain and fold share one undo log.
    """

    def __init__(self, genesis: Block):
        self.chain = Chain(genesis)
        self.trust = trust.TrustState(self.chain.journal)
        trust.fold_block(self.trust, self.chain, genesis)

    def trust_for(self, address: bytes) -> int:
        return consensus.consensus_trust(self.chain, self.trust, address)

    def apply(self, blk: Block) -> None:
        """Validate and append one block; LedgerError on rejection, with
        the txid of the failing transaction, None for header failures."""
        gen_trust = self.trust_for(crypto.address_of(blk.header.generator_pub))
        reason = consensus.validate_block(blk, self.chain, gen_trust)
        if reason:
            raise LedgerError(reason, height=blk.height)
        self.chain.apply_block(blk, gen_trust)
        trust.fold_block(self.trust, self.chain, blk)

    def pop(self) -> Block:
        """Undo the latest apply(): chain indices and trust fold, exactly.

        The fold writes through the chain's journal after the block's own
        writes, so undoing the block's mark takes both back together."""
        return self.chain.pop_block()


def replay_blocks(blocks: list[Block]) -> Replica:
    """Rebuild a replica from serialized history; LedgerError on defects.

    This is the offline verification path: everything needed (consensus
    parameters, stakes, trust pins, trust history) is recovered from the
    blocks alone. Every signature the replay may check is checked up front
    on all CPUs; the replay then finds the verdicts memoized, so its order,
    its failure reasons and its result are those of a one-CPU replay.
    """
    if not blocks:
        raise LedgerError("BAD_ENCODING", "empty ledger")
    crypto.verify_many(triple for blk in blocks[1:]
                       for triple in (blk.header.sig_triple,
                                      *(tx.sig_triple for tx in blk.txs)))
    replica = Replica(blocks[0])
    for blk in blocks[1:]:
        replica.apply(blk)
    return replica
