"""Deterministic discrete-event network simulation.

A World owns the event queue, the link model, and the node roster; every
Node runs a full replica plus a mempool and reacts to deliveries. All
randomness flows from one seeded generator, all ties break on sequence
numbers, and node iteration is name-sorted, so a (config, seed) pair
replays to a byte-identical event log and ledger.

Message loss is modeled only through partitions: a payload scheduled
before a cut still checks reachability at delivery time, so in-flight
traffic into a fresh partition is dropped (and logged).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import consensus, federation
from .consensus import ConsensusParams
from .crypto import DetRng, KeyPair, generate_keypair
from .fixedpoint import to_float
from .ledger import (
    Block,
    BlockHeader,
    Chain,
    RegisterData,
    Transaction,
    TxKind,
    ZERO_DIGEST,
    _Stage,
    build_register_tx,
    compute_tx_root,
    make_genesis,
)
from .replica import Replica
from .scenario import NodeSpec, ScenarioConfig
from .trust import BOOTSTRAP_TRUST

MAX_TXS_PACKED = 100
SIDE_CACHE_LIMIT = 8

# event kinds, dispatched by World._step
SLOT_TICK = "slot_tick"
DELIVER_TX = "deliver_tx"
DELIVER_BLOCK = "deliver_block"
DELIVER_MSG = "deliver_msg"
SCENARIO_ACTION = "scenario_action"
PARTITION_CHANGE = "partition_change"


@dataclass
class HomeUser:
    """Home-side account record for a registered user."""
    username: str
    pseudonym: bytes
    credential: bytes
    profile: bytes


@dataclass
class ForeignRequest:
    """Foreign-side context for an access request awaiting confirmation."""
    req_id: str
    user: str
    home: str
    resource: bytes
    resource_label: str
    state: str
    token_id: bytes | None = None
    deadline: int | None = None


class Node:
    """One cloud service provider: replica, mempool, protocol state."""

    def __init__(self, name: str, spec: NodeSpec, key: KeyPair,
                 rng: DetRng, genesis: Block, params: ConsensusParams,
                 overrides: dict[bytes, int]):
        self.name = name
        self.spec = spec
        self.behavior = spec.behavior
        self.key = key
        self.rng = rng
        self.address = key.address
        self.replica = Replica(genesis, params, overrides)
        self._genesis = genesis
        self._overrides = overrides
        self.mempool: dict[bytes, tuple[int, Transaction]] = {}
        self._arrival = 0
        self.side: dict[bytes, Replica] = {}
        # federation state
        self.users: dict[bytes, HomeUser] = {}
        self.child_index = 0
        self.pending: dict[str, ForeignRequest] = {}
        self.pending_sat: dict[bytes, str] = {}
        self.consumed: set[bytes] = set()
        self.last_token = None          # most recent issued AccessToken
        self.wallet_prev: bytes = ZERO_DIGEST
        self.ref_in: bytes = ZERO_DIGEST
        self.ref_out: bytes = ZERO_DIGEST

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
        self.mempool[tx.txid] = (self._arrival, tx)
        self._arrival += 1

    def _pack_txs(self, world: "World") -> tuple[Transaction, ...]:
        """Oldest-first selection, re-validated against a staged view."""
        stage = _Stage()
        picked: list[Transaction] = []
        order = sorted(self.mempool.items(), key=lambda kv: kv[1][0])
        for txid, (_, tx) in order:
            if len(picked) >= MAX_TXS_PACKED:
                break
            if tx.kind == TxKind.TOKEN:
                token = tx.outputs[0].token
                if token.expires_at <= world.now:
                    del self.mempool[txid]      # stale token, drop it
                    continue
            if self.chain.validate_tx(tx, stage) is None:
                stage.absorb(tx, self.chain.height + 1)
                picked.append(tx)
        return tuple(picked)

    def _evict_included(self) -> None:
        txids = self.chain.txids
        for txid in [t for t in self.mempool if t in txids]:
            del self.mempool[txid]

    # --- block generation --------------------------------------------------

    def try_generate(self, world: "World") -> None:
        chain = self.chain
        tip = chain.tip
        if world.now <= tip.header.timestamp:
            return
        if self.address not in chain.registered:
            return
        state = consensus.consensus_state_at(chain, self.address)
        trust = self.replica.trust_for(self.address)
        if not consensus.check_eligibility(tip.h_blk, world.params, state,
                                           trust, self.key.pub_bytes,
                                           world.now):
            return
        txs = self._pack_txs(world)
        header = BlockHeader(
            height=tip.height + 1, prev_block=tip.h_blk,
            tx_root=compute_tx_root(txs), timestamp=world.now,
            generator_pub=self.key.pub_bytes, prf=ZERO_DIGEST,
            base_target=chain.base_target, sig=b"\x00" * 64)
        cand = Block(header, txs)
        sealed = consensus.generate_block(cand, world.params, self.key,
                                          state, trust)
        if sealed is None:  # eligibility was just checked
            raise RuntimeError(f"{self.name}: eligible but no block sealed")
        blk = consensus.seal_block(cand, *sealed)
        world.log_event("block_generated", node=self.name, height=blk.height,
                        h_blk=blk.h_blk.hex(), ntx=len(txs))

        if self.behavior == "tamperer":
            # discard the honest block, ship a corrupted copy instead
            evil = _corrupt_block(blk)
            world.log_event("block_tampered", node=self.name,
                            height=evil.height, h_blk=evil.h_blk.hex())
            world.broadcast_block(self, tuple(chain.blocks) + (evil,))
            return

        reason = self.replica.apply(blk)
        if reason is not None:
            raise RuntimeError(f"{self.name}: own block rejected: {reason}")
        self._evict_included()
        world.log_event("block_accepted", node=self.name, height=blk.height,
                        h_blk=blk.h_blk.hex(), generator=self.name)
        federation.on_canonical_change(world, self)
        world.broadcast_block(self, tuple(chain.blocks))

    # --- branch reception --------------------------------------------------

    def receive_branch(self, world: "World", branch: tuple[Block, ...],
                       source: str) -> None:
        tip = branch[-1]
        chain = self.chain
        if tip.h_blk == chain.tip.h_blk:
            return
        if tip.height <= chain.height \
                and chain.blocks[tip.height].h_blk == tip.h_blk:
            return      # stale prefix of what we already hold

        if tip.header.prev_block == chain.tip.h_blk:
            # fast path: direct tip extension
            reason = self.replica.apply(tip)
            if reason is not None:
                world.log_event("block_rejected", node=self.name,
                                height=tip.height, h_blk=tip.h_blk.hex(),
                                reason=reason,
                                txid=_reject_txid(self.replica),
                                source=source)
                return
            self._evict_included()
            world.log_event("block_accepted", node=self.name,
                            height=tip.height, h_blk=tip.h_blk.hex(),
                            generator=source)
            federation.on_canonical_change(world, self)
            return

        if branch[0].h_blk != self._genesis.h_blk:
            world.log_event("block_rejected", node=self.name,
                            height=tip.height, h_blk=tip.h_blk.hex(),
                            reason="BAD_LINK", source=source)
            return

        side = self._side_replica(world, branch, source)
        if side is None:
            return
        winner = consensus.resolve([chain, side.chain])
        if winner is side.chain:
            old = self.replica
            self.replica = side
            self.side.pop(side.chain.tip.h_blk, None)
            self.side[old.chain.tip.h_blk] = old
            depth = _fork_depth(old.chain, side.chain)
            world.log_event("fork_switch", node=self.name,
                            old_height=old.chain.height,
                            new_height=side.chain.height,
                            h_blk=side.chain.tip.h_blk.hex(), depth=depth)
            self._reconcile_mempool(old.chain)
            federation.on_canonical_change(world, self)
        else:
            self.side[side.chain.tip.h_blk] = side
        while len(self.side) > SIDE_CACHE_LIMIT:
            self.side.pop(next(iter(self.side)))

    def _side_replica(self, world: "World", branch: tuple[Block, ...],
                      source: str) -> Replica | None:
        """Validate a competing branch, reusing a cached side replica."""
        tip = branch[-1]
        cached = self.side.pop(tip.header.prev_block, None)
        if cached is not None:
            todo = (tip,)
            side = cached
        else:
            todo = branch[1:]
            side = Replica(self._genesis, world.params, self._overrides)
        for blk in todo:
            reason = side.apply(blk)
            if reason is not None:
                world.log_event("block_rejected", node=self.name,
                                height=blk.height, h_blk=blk.h_blk.hex(),
                                reason=reason, txid=_reject_txid(side),
                                source=source)
                return None
        return side

    def _reconcile_mempool(self, old_chain: Chain) -> None:
        """After a switch: re-add orphaned txs, evict newly included ones."""
        new_chain = self.chain
        fork = _fork_point(old_chain, new_chain)
        for height in range(fork + 1, old_chain.height + 1):
            for tx in old_chain.blocks[height].txs:
                if tx.txid not in new_chain.txids \
                        and tx.txid not in self.mempool:
                    self.mempool[tx.txid] = (self._arrival, tx)
                    self._arrival += 1
        self._evict_included()


def _fork_point(a: Chain, b: Chain) -> int:
    height = min(a.height, b.height)
    while a.blocks[height].h_blk != b.blocks[height].h_blk:
        height -= 1
    return height


def _fork_depth(old: Chain, new: Chain) -> int:
    return old.height - _fork_point(old, new)


def _reject_txid(replica: Replica) -> str | None:
    txid = replica.last_reject_txid
    return txid.hex() if txid else None


def _corrupt_block(blk: Block) -> Block:
    """Flip one signature byte; framing stays intact, crypto checks fail."""
    if blk.txs:
        victim = blk.txs[-1]
        bad_sig = victim.sig[:-1] + bytes([victim.sig[-1] ^ 0x01])
        txs = blk.txs[:-1] + (Transaction(
            kind=victim.kind, inputs=victim.inputs, outputs=victim.outputs,
            prev_tx=victim.prev_tx, payload=victim.payload,
            sender_pub=victim.sender_pub, txid=victim.txid, sig=bad_sig),)
        return Block(blk.header, txs)
    hdr = blk.header
    bad_sig = hdr.sig[:-1] + bytes([hdr.sig[-1] ^ 0x01])
    return Block(BlockHeader(
        height=hdr.height, prev_block=hdr.prev_block, tx_root=hdr.tx_root,
        timestamp=hdr.timestamp, generator_pub=hdr.generator_pub,
        prf=hdr.prf, base_target=hdr.base_target, sig=bad_sig), blk.txs)


@dataclass
class UserInfo:
    """World-level user directory entry (who registered where)."""
    username: str
    pseudonym: bytes
    homes: list[str]
    credentials: dict[str, bytes]
    profile: bytes


@dataclass
class RequestRecord:
    """Bookkeeping mirror of a request's lifecycle, for inspection."""
    req_id: str
    user: str
    home: str | None
    target: str
    resource: str
    state: str
    reason: str | None = None
    token_id: bytes | None = None


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
        self.overrides: dict[bytes, int] = {}

        # keys first, in roster order, so node identity is config-stable
        keys = {spec.name: generate_keypair(
                    self.rng.child(f"key:{spec.name}").take(32))
                for spec in cfg.nodes}
        for spec in cfg.nodes:
            if spec.trust_override is not None:
                self.overrides[keys[spec.name].address] = spec.trust_override

        regs = [build_register_tx(keys[spec.name],
                                  RegisterData(spec.weight_sat,
                                               spec.weight_auth, spec.stake))
                for spec in cfg.nodes]
        base = cfg.consensus.base_target
        if base is None:
            trusts = [self.overrides.get(keys[s.name].address,
                                         BOOTSTRAP_TRUST)
                      for s in cfg.nodes]
            base = consensus.calibrate_base_target(
                [s.stake for s in cfg.nodes], trusts)
        self.genesis = make_genesis(
            regs, base, interval_ms=cfg.consensus.block_interval_ms,
            slot_ms=cfg.consensus.slot_ms, k_bits=cfg.consensus.k_bits,
            time_cap=cfg.consensus.time_cap_intervals)
        self.params = ConsensusParams(
            base_target=base, k_bits=cfg.consensus.k_bits,
            block_interval_ms=cfg.consensus.block_interval_ms,
            slot_ms=cfg.consensus.slot_ms,
            time_cap_intervals=cfg.consensus.time_cap_intervals)

        self.nodes: dict[str, Node] = {}
        for spec in cfg.nodes:
            self._add_node(spec, keys[spec.name])

        self.log_event("genesis", h_blk=self.genesis.h_blk.hex(),
                       base_target=to_float(base),
                       interval_ms=cfg.consensus.block_interval_ms)
        for spec in cfg.nodes:
            extra = {}
            if spec.trust_override is not None:
                extra["trust_override"] = to_float(spec.trust_override)
            self.log_event("register", node=spec.name,
                           address=keys[spec.name].address.hex(),
                           stake=to_float(spec.stake),
                           weight_sat=to_float(spec.weight_sat),
                           weight_auth=to_float(spec.weight_auth),
                           behavior=spec.behavior, **extra)

        self.schedule(cfg.consensus.slot_ms, SLOT_TICK, ())
        for part in cfg.partitions:
            self.schedule(part.at_ms, PARTITION_CHANGE, (part,))
        for action in cfg.actions:
            self.schedule(action.at_ms, SCENARIO_ACTION, (action,))

    def _add_node(self, spec: NodeSpec, key: KeyPair) -> Node:
        node = Node(spec.name, spec, key,
                    self.rng.child(f"node:{spec.name}"),
                    self.genesis, self.params, self.overrides)
        self.nodes[spec.name] = node
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

    def broadcast_block(self, origin: Node, branch: tuple[Block, ...]) -> None:
        for name in sorted(self.nodes):
            if name == origin.name:
                continue
            self.schedule(self.now + self.latency(origin.name, name),
                          DELIVER_BLOCK, (name, origin.name, branch))

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
                self.broadcast_block(node, tuple(node.chain.blocks))
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
            dst, src, branch = data
            if not self._dropped(src, dst, "block"):
                self.nodes[dst].receive_branch(self, branch, source=src)
        elif kind == DELIVER_MSG:
            dst, src, payload = data
            if not self._dropped(src, dst, payload.get("kind", "msg")):
                federation.on_message(self, self.nodes[dst], src, payload)
        elif kind == SCENARIO_ACTION:
            federation.run_action(self, data[0])
        elif kind == PARTITION_CHANGE:
            self._on_partition_change(data[0])
        else:   # pragma: no cover - queue only ever holds known kinds
            raise AssertionError(f"unknown event kind {kind}")

    def run(self) -> None:
        while self._queue:
            at, _, kind, data = self._queue[0]
            if at > self.cfg.duration_ms:
                break
            heapq.heappop(self._queue)
            self.now = at
            self._step(kind, data)
        self.now = self.cfg.duration_ms

    def drain(self) -> None:
        """Flush in-flight deliveries past the horizon, without new slots.

        After run() stops the clock there may still be blocks and messages
        on the wire.  Letting those land (and nothing else: no ticks, no
        scripted actions) settles every replica on its final tip, which is
        what convergence checks want to compare.
        """
        deliver = (DELIVER_TX, DELIVER_BLOCK, DELIVER_MSG)
        while self._queue:
            at, _, kind, data = heapq.heappop(self._queue)
            if kind not in deliver:
                continue
            self.now = max(self.now, at)
            self._step(kind, data)

    # --- results -----------------------------------------------------------

    @property
    def canonical(self) -> Node:
        """The node whose chain is persisted: first in the config roster."""
        return self.nodes[self.cfg.nodes[0].name]
