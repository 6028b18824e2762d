"""Deterministic discrete-event network simulation.

A World owns the event queue, the link model, the node roster, and a
store of every block it has broadcast, keyed by h_blk; every Node runs
one full replica plus a mempool and reacts to deliveries. A delivery
carries only the sender's new tip, and a node's own new block takes the
same intake, receive_branch, as a peer's. A tip lower than the node's
chain cannot win, and is dismissed unread, as is one stamped after the
shared clock. For any other, the node walks prev_block back through the
store to its own chain, pops its own blocks back to that fork point,
applies the branch, and keeps whichever side consensus.resolve prefers,
re-applying its own blocks if it keeps them. A node that rejects a
peer's block, for any reason, reads no later block from that peer (it
logs peer_discouraged once), as Bitcoin Core discourages a peer that
relays an invalid block, and the peer sends it none, as Bitcoin Core
then disconnects it; that peer's transactions and federation messages
still flow. A tamperer that no peer reads any more signs and sends
nothing. An honest branch is valid at every receiver, since a block is
judged against its parent alone and every node reads one clock, so no
honest peer is ever discouraged. All randomness flows from one seeded
generator, all ties break on sequence numbers, and node iteration is
name-sorted, so a (config, seed) pair replays to a byte-identical event
log and ledger.

Message loss is modeled only through partitions: a payload scheduled
before a cut still checks reachability at delivery time, so in-flight
traffic into a fresh partition is dropped (and logged). A delivery never
scheduled draws no latency from its link's stream, and is not logged as
dropped.
"""

from __future__ import annotations

import heapq

from . import consensus, federation
from .crypto import DetRng, KeyPair, defer_own_checks, generate_keypair
from .federation import ForeignRequest, HomeUser, RequestRecord, UserInfo
from .fixedpoint import to_float
from .ledger import (
    Block,
    BlockHeader,
    Chain,
    LedgerError,
    Transaction,
    TxKind,
    build_register_tx,
    compute_tx_root,
    make_genesis,
)
from .replica import Replica
from .scenario import NodeSpec, ScenarioConfig

MAX_TXS_PACKED = 100

# event kinds, dispatched by World._step
SLOT_TICK = "slot_tick"
DELIVER_TX = "deliver_tx"
DELIVER_BLOCK = "deliver_block"
DELIVER_MSG = "deliver_msg"
SCENARIO_ACTION = "scenario_action"
PARTITION_CHANGE = "partition_change"


class Node:
    """One cloud service provider: replica, mempool, protocol state."""

    def __init__(self, name: str, spec: NodeSpec, key: KeyPair,
                 rng: DetRng, genesis: Block):
        self.name = name
        self.behavior = spec.behavior
        self.key = key
        self.rng = rng
        self.address = key.address
        self.replica = Replica(genesis)
        self.mempool: dict[bytes, Transaction] = {}     # in arrival order
        # federation state
        self.users: dict[bytes, HomeUser] = {}
        self.child_index = 0
        self.pending: dict[str, ForeignRequest] = {}
        self.pending_sat: set[bytes] = set()     # token ids to rate
        self.consumed: set[bytes] = set()
        self.last_token = None          # most recent issued AccessToken
        # sources whose block this node rejected: their blocks go unread
        self.discouraged: set[str] = set()

    @property
    def chain(self) -> Chain:
        return self.replica.chain

    # --- mempool -----------------------------------------------------------

    def admit_tx(self, world: "World", tx: Transaction, source: str) -> None:
        if tx.txid in self.mempool or tx.txid in self.chain.txids:
            return
        reason = self.chain.validate_tx(tx)
        if reason is not None:
            world.log_event("tx_rejected", node=self.name,
                            txid=tx.txid.hex(), reason=reason, source=source)
            return
        self.mempool[tx.txid] = tx

    def _pack_txs(self, world: "World") -> tuple[Transaction, ...]:
        """Oldest-first selection, each tx validated against the chain plus
        the ones picked before it; the chain is left as it was found."""
        chain = self.chain
        mark = chain.journal.mark()
        picked: list[Transaction] = []
        try:
            for tx in list(self.mempool.values()):
                if len(picked) >= MAX_TXS_PACKED:
                    break
                if (tx.kind == TxKind.TOKEN
                        and tx.data.token.expires_at <= world.now):
                    del self.mempool[tx.txid]   # stale token, drop it
                    continue
                if chain.try_absorb(tx) is None:
                    picked.append(tx)
        finally:
            chain.journal.undo(mark)
        return tuple(picked)

    def _evict_included(self) -> None:
        txids = self.chain.txids
        for txid in [t for t in self.mempool if t in txids]:
            del self.mempool[txid]

    # --- block generation --------------------------------------------------

    def try_generate(self, world: "World") -> None:
        chain = self.chain
        tip = chain.tip
        state = consensus.consensus_state_at(chain, self.address)
        trust = self.replica.trust_for(self.address)
        if not consensus.check_eligibility(chain.params, state, trust,
                                           self.key.pub_bytes, world.now):
            return
        txs = self._pack_txs(world)
        header = BlockHeader(
            height=tip.height + 1, prev_block=tip.h_blk,
            tx_root=compute_tx_root(txs), timestamp=world.now,
            generator_pub=self.key.pub_bytes,
            prf=consensus.candidate_prf(self.key.pub_bytes, state.prf_old),
            base_target=chain.params.base_target, sig=b"\x00" * 64)
        # h_blk leaves every signature out, so it is known before signing
        # and a corrupted copy shares it
        h_blk = header.h_blk.hex()
        world.log_event("block_generated", node=self.name,
                        height=header.height, h_blk=h_blk, ntx=len(txs))
        blk = Block(header, txs)
        if self.behavior == "tamperer":
            # discard the honest block, ship a corrupted copy instead
            world.log_event("block_tampered", node=self.name,
                            height=header.height, h_blk=h_blk)
            if not world.readers(self):
                return      # every peer has discouraged us: nothing to send
            blk = _corrupt_block(consensus.seal_block(blk, self.key))
        else:
            # our own block takes the same intake as a peer's
            blk = consensus.seal_block(blk, self.key)
            self.receive_branch(world, blk, self.name)
        world.broadcast_block(self, (blk,))

    # --- branch reception --------------------------------------------------

    def receive_branch(self, world: "World", tip: Block, source: str) -> None:
        if source in self.discouraged:
            return
        chain = self.chain
        # consensus.resolve ranks height first: a shorter branch cannot win
        if tip.height < chain.height or tip.h_blk == chain.tip.h_blk:
            return
        # all nodes read one clock, so the allowance for clock skew is 0
        if tip.header.timestamp > world.now:
            world.log_event("block_rejected", node=self.name,
                            height=tip.height, h_blk=tip.h_blk.hex(),
                            reason="TIME_TOO_NEW", source=source)
            self._discourage(world, source)
            return
        self._side_replica(world, tip, source)

    def _side_replica(self, world: "World", tip: Block, source: str) -> None:
        """Apply the branch ending at a tip no lower than ours; keep the winner.

        The branch is read back from the world's store, by prev_block from
        the tip down to the fork point, its first block on our chain. The
        replica pops back to the fork point and applies the branch. A
        branch is all-or-nothing: if a block fails, or consensus.resolve
        prefers our old tip at the same height, the branch is popped and
        our own blocks are re-applied. A failing block also discourages
        its source, whose later blocks receive_branch then ignores. A
        node's own new block arrives here too, from try_generate, as a
        one-block extension; its rejection is a broken invariant and
        raises RuntimeError.
        """
        replica = self.replica
        chain = replica.chain
        branch = []
        blk = tip
        while (blk.height > chain.height
               or chain.blocks[blk.height].h_blk != blk.h_blk):
            branch.append(blk)
            blk = world.blocks[blk.header.prev_block]
        fork = blk.height
        ours = _fork_tip(chain)
        orphans = chain.blocks[fork + 1:]
        self._rewind(fork)
        for blk in reversed(branch):
            try:
                replica.apply(blk)
            except LedgerError as exc:
                if source == self.name:
                    raise RuntimeError(f"{self.name}: own block rejected: "
                                       f"{exc.reason}") from exc
                world.log_event("block_rejected", node=self.name,
                                height=blk.height, h_blk=blk.h_blk.hex(),
                                reason=exc.reason,
                                txid=exc.txid.hex() if exc.txid else None,
                                source=source)
                self._restore(fork, orphans)
                self._discourage(world, source)
                return
        theirs = _fork_tip(chain)
        if consensus.resolve([ours, theirs]) is ours:
            self._restore(fork, orphans)
            return
        tip = chain.tip
        if not orphans and tip.height == fork + 1:
            self._evict_included()
            world.log_event("block_accepted", node=self.name,
                            height=tip.height, h_blk=tip.h_blk.hex(),
                            generator=source)
        else:
            world.log_event("fork_switch", node=self.name,
                            old_height=ours[0], new_height=tip.height,
                            h_blk=tip.h_blk.hex(), depth=len(orphans))
            self._reconcile_mempool(orphans)
        federation.on_canonical_change(world, self)

    def _discourage(self, world: "World", source: str) -> None:
        """Read no later block from a source that sent an invalid one."""
        self.discouraged.add(source)
        world.log_event("peer_discouraged", node=self.name, source=source)

    def _rewind(self, height: int) -> None:
        while self.chain.height > height:
            self.replica.pop()

    def _restore(self, fork: int, blocks: list[Block]) -> None:
        """Pop back to the fork point and re-apply our own blocks."""
        self._rewind(fork)
        for blk in blocks:
            try:
                self.replica.apply(blk)
            except LedgerError as exc:
                raise RuntimeError(f"{self.name}: own block at height "
                                   f"{blk.height} rejected on re-apply: "
                                   f"{exc.reason}") from exc

    def _reconcile_mempool(self, orphans: list[Block]) -> None:
        """After a switch: re-add orphaned txs, evict newly included ones."""
        txids = self.chain.txids
        for blk in orphans:
            for tx in blk.txs:
                if tx.txid not in txids and tx.txid not in self.mempool:
                    self.mempool[tx.txid] = tx
        self._evict_included()


def _fork_tip(chain: Chain) -> tuple[int, int, bytes]:
    """What consensus.resolve orders fork tips by."""
    return chain.height, chain.cum_trust[-1], chain.tip.h_blk


def _corrupt_block(blk: Block) -> Block:
    """Flip one signature byte; framing stays intact, crypto checks fail."""
    victim = blk.txs[-1] if blk.txs else blk.header
    bad = victim._replace(sig=victim.sig[:-1] + bytes([victim.sig[-1] ^ 0x01]))
    if blk.txs:
        return Block(blk.header, blk.txs[:-1] + (bad,))
    return Block(bad, blk.txs)


class World:
    """Event loop, link model, and shared directories for one run."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = DetRng(cfg.seed)
        self.now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, str, tuple]] = []
        self.events: list[dict] = []
        self.partitions: list[frozenset[str]] | None = None
        self._link_rng: dict[tuple[str, str], DetRng] = {}
        self.users: dict[str, UserInfo] = {}
        self.requests: dict[str, RequestRecord] = {}

        keys = {spec.name: self._provider_key(spec) for spec in cfg.nodes}
        regs = [build_register_tx(keys[spec.name], spec.register_data())
                for spec in cfg.nodes]
        self.genesis = make_genesis(regs, **cfg.consensus._asdict())
        # every block broadcast, by h_blk: receivers read branches from it
        self.blocks: dict[bytes, Block] = {self.genesis.h_blk: self.genesis}
        self.log_event("genesis", h_blk=self.genesis.h_blk.hex(),
                       base_target=to_float(cfg.consensus.base_target),
                       interval_ms=cfg.consensus.block_interval_ms)

        self.nodes: dict[str, Node] = {}
        for spec in cfg.nodes:
            self._add_node(spec, keys[spec.name])

        self.schedule(cfg.consensus.slot_ms, SLOT_TICK, ())
        for part in cfg.partitions:
            self.schedule(part.at_ms, PARTITION_CHANGE, (part,))
        for action in cfg.actions:
            self.schedule(action.at_ms, SCENARIO_ACTION, (action,))

    def _provider_key(self, spec: NodeSpec) -> KeyPair:
        """A provider's key, drawn from a stream named after it so node
        identity is config-stable."""
        return generate_keypair(self.rng.child(f"key:{spec.name}").take(32))

    def _add_node(self, spec: NodeSpec, key: KeyPair) -> Node:
        """Bring a provider's node online and log its registration."""
        node = Node(spec.name, spec, key,
                    self.rng.child(f"node:{spec.name}"),
                    self.genesis)
        self.nodes[spec.name] = node
        extra = {}
        if spec.trust_override is not None:
            extra["trust_override"] = to_float(spec.trust_override)
        self.log_event("register", node=spec.name, address=key.address.hex(),
                       stake=to_float(spec.stake),
                       weight_sat=to_float(spec.weight_sat),
                       weight_auth=to_float(spec.weight_auth),
                       behavior=spec.behavior, **extra)
        return node

    # --- logging -----------------------------------------------------------

    def log_event(self, event: str, **fields) -> None:
        entry = {"ts": self.now, "event": event}
        entry.update(fields)
        self.events.append(entry)

    # --- scheduling and connectivity --------------------------------------

    def schedule(self, at: int, kind: str, data: tuple) -> None:
        if at < self.now:
            raise ValueError(f"cannot schedule into the past: {at} < {self.now}")
        heapq.heappush(self._queue, (at, self._seq, kind, data))
        self._seq += 1

    def latency(self, src: str, dst: str) -> int:
        links = self.cfg.links
        base = links.overrides.get((src, dst), links.default_latency_ms)
        if links.jitter_ms == 0:
            return base
        stream = self._link_rng.get((src, dst))
        if stream is None:
            stream = self.rng.child(f"link:{src}:{dst}")
            self._link_rng[(src, dst)] = stream
        return base + stream.randbelow(links.jitter_ms + 1)

    def reachable(self, a: str, b: str) -> bool:
        if a == b:
            return True
        if self.partitions is None:
            return True
        for group in self.partitions:
            if a in group:
                return b in group
        return False    # node outside every group is isolated

    # --- traffic -----------------------------------------------------------

    def broadcast_tx(self, origin: Node, tx: Transaction) -> None:
        self.log_event("tx_submitted", node=origin.name, txid=tx.txid.hex(),
                       kind=TxKind(tx.kind).name.lower())
        origin.admit_tx(self, tx, source=origin.name)
        for name in sorted(self.nodes):
            if name == origin.name:
                continue
            self.schedule(self.now + self.latency(origin.name, name),
                          DELIVER_TX, (name, origin.name, tx))

    def readers(self, origin: Node) -> list[str]:
        """The peers that still read origin's blocks: all but those that
        have discouraged it, in name order."""
        return [name for name in sorted(self.nodes) if name != origin.name
                and origin.name not in self.nodes[name].discouraged]

    def broadcast_block(self, origin: Node, sent: tuple[Block]) -> None:
        """Store a node's tip and announce it to every peer that still
        reads origin's blocks; each reads the ancestors it lacks from the
        store. A peer that has discouraged origin is sent nothing, as
        Bitcoin Core disconnects a peer it discourages. The tip comes as a
        one-block tuple, which perfbench counts by length. h_blk leaves
        signatures out, so another block under a stored h_blk raises
        RuntimeError."""
        (tip,) = sent
        if self.blocks.setdefault(tip.h_blk, tip) is not tip:
            raise RuntimeError(f"{origin.name}: another block under stored "
                               f"h_blk {tip.h_blk.hex()}")
        for name in self.readers(origin):
            self.schedule(self.now + self.latency(origin.name, name),
                          DELIVER_BLOCK, (name, origin.name, tip))

    def send_msg(self, src: str, dst: str, payload: dict) -> None:
        self.schedule(self.now + self.latency(src, dst),
                      DELIVER_MSG, (dst, src, payload))

    def _dropped(self, src: str, dst: str, what: str) -> bool:
        if self.reachable(src, dst):
            return False
        self.log_event("partition_drop", node=dst, source=src, payload=what)
        return True

    # --- event handlers ----------------------------------------------------

    def _on_slot_tick(self) -> None:
        self.log_event("tick", slot=self.now // self.cfg.consensus.slot_ms)
        for name in sorted(self.nodes):
            node = self.nodes[name]
            federation.check_timeouts(self, node)
            node.try_generate(self)
        nxt = self.now + self.cfg.consensus.slot_ms
        if nxt <= self.cfg.duration_ms:
            self.schedule(nxt, SLOT_TICK, ())

    def _on_partition_change(self, part) -> None:
        if part.groups is None:
            if self.partitions is None:
                return      # heal without a cut: nothing to do
            self.partitions = None
            self.log_event("partition_heal")
            # tips cross the former cut on the next deliveries
            for name in sorted(self.nodes):
                node = self.nodes[name]
                self.broadcast_block(node, (node.chain.tip,))
        else:
            self.partitions = part.groups
            self.log_event("partition_start",
                           groups=[sorted(g) for g in part.groups])

    def _step(self, kind: str, data: tuple) -> None:
        if kind == SLOT_TICK:
            self._on_slot_tick()
        elif kind == DELIVER_TX:
            dst, src, tx = data
            if not self._dropped(src, dst, "tx"):
                self.nodes[dst].admit_tx(self, tx, source=src)
        elif kind == DELIVER_BLOCK:
            dst, src, tip = data
            if not self._dropped(src, dst, "block"):
                self.nodes[dst].receive_branch(self, tip, source=src)
        elif kind == DELIVER_MSG:
            dst, src, payload = data
            if not self._dropped(src, dst, payload.get("kind", "msg")):
                federation.on_message(self, self.nodes[dst], src, payload)
        elif kind == SCENARIO_ACTION:
            federation.run_action(self, data[0])
        else:   # PARTITION_CHANGE; the queue only holds the kinds above
            self._on_partition_change(data[0])

    def run(self) -> None:
        """Process events up to the horizon. The check of each signature a
        node made in this run is deferred and done before run() returns;
        one that fails raises CryptoError (see crypto.defer_own_checks)."""
        with defer_own_checks():
            while self._queue:
                at, _, kind, data = self._queue[0]
                if at > self.cfg.duration_ms:
                    break
                heapq.heappop(self._queue)
                self.now = at
                self._step(kind, data)
        self.now = self.cfg.duration_ms

    # --- results -----------------------------------------------------------

    @property
    def canonical(self) -> Node:
        """The node whose chain is persisted: first in the config roster."""
        return self.nodes[self.cfg.nodes[0].name]
