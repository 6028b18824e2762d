"""On-chain data model: tokens, transactions, blocks, chain state, file I/O.

A transaction is (kind, payload, sender_pub, txid, sig), its payload parsed
by kind. Wire encodings are canonical big-endian with explicit length
prefixes, so a transaction id is simply the digest of its serialized fields
and any byte flip anywhere in a persisted ledger breaks a digest, a
signature, or the strict framing. Parsing is strict: every length must be
consumed exactly.

The chain tracks three uniqueness indices next to the block list: token ids
(a token exists in at most one transaction), (issuer, nonce) pairs, and
transaction ids. Registration records and per-generator production history
are maintained as blocks apply so consensus and trust can be replayed from
the raw file alone. There is one Journal per replica: every index write,
and every write of the trust fold on top of the chain, is logged in it, so
undoing a block's mark takes back a popped or rejected block whole.
"""

from __future__ import annotations

from collections.abc import Collection
from enum import IntEnum
from functools import cached_property
from typing import NamedTuple

from . import crypto
from .crypto import Ciphertext, DetRng, KeyPair, sha256
from .fixedpoint import ONE

# ===========================================================================
# Constants
# ===========================================================================

LEDGER_MAGIC = b"CTSIM3\n"
# the optional last byte of a REGISTER payload, absent unless pinned
REGISTER_PINNED = b"\x01"

DIGEST_LEN = crypto.DIGEST_LEN
ADDRESS_LEN = crypto.ADDRESS_LEN
ZERO_DIGEST = crypto.ZERO_DIGEST

# parse-time caps; anything beyond these is a malformed ledger, not data
MAX_PRIVILEGES = 64
MAX_PRIVILEGE_LEN = 4096
MAX_PAYLOAD_LEN = 1 << 20
MAX_TXS_PER_BLOCK = 10000
MAX_BLOCK_LEN = 1 << 24


class TxKind(IntEnum):
    TOKEN = 1
    FEEDBACK = 2
    REGISTER = 3


class LedgerError(Exception):
    """Validation or parse failure; .reason is machine-readable. A rejected
    block names its .height and, when a transaction failed, its .txid."""

    def __init__(self, reason: str, detail: str = "",
                 txid: bytes | None = None, height: int = 0):
        self.reason = reason
        self.detail = detail
        self.txid = txid
        self.height = height
        super().__init__(f"{reason}: {detail}" if detail else reason)


# ===========================================================================
# Strict binary reader / writers
# ===========================================================================

class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.off = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.off + n > len(self.data):
            raise LedgerError("BAD_ENCODING", "truncated field")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def done(self) -> bool:
        return self.off == len(self.data)


def _u8(v: int) -> bytes:
    return v.to_bytes(1, "big")


def _u16(v: int) -> bytes:
    return v.to_bytes(2, "big")


def _u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def _u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


# ===========================================================================
# Access tokens
# ===========================================================================

# A record that caches a derived value declares its fields on a NamedTuple
# and its cached_property on a subclass: a tuple subclass without __slots__
# has the instance dict that cached_property stores into.
class _TokenFields(NamedTuple):
    pseudonym: bytes        # 20-byte user address
    issuer: bytes           # home provider address
    audience: bytes         # foreign provider address
    resource: bytes         # resource address
    privileges: tuple[bytes, ...]
    issued_at: int          # simulated ms
    expires_at: int
    nonce: int              # issuer-scoped replay guard


class AccessToken(_TokenFields):
    """Identity claims binding a user pseudonym to a resource grant."""

    @cached_property
    def token_id(self) -> bytes:
        return sha256(ser_token(self))


def ser_token(tok: AccessToken) -> bytes:
    parts = [tok.pseudonym, tok.issuer, tok.audience, tok.resource,
             _u16(len(tok.privileges))]
    for priv in tok.privileges:
        parts.append(_u32(len(priv)))
        parts.append(priv)
    parts.append(_u64(tok.issued_at))
    parts.append(_u64(tok.expires_at))
    parts.append(_u64(tok.nonce))
    return b"".join(parts)


def _parse_token(r: _Reader) -> AccessToken:
    pseudonym = r.take(ADDRESS_LEN)
    issuer = r.take(ADDRESS_LEN)
    audience = r.take(ADDRESS_LEN)
    resource = r.take(ADDRESS_LEN)
    nprivs = r.u16()
    if nprivs > MAX_PRIVILEGES:
        raise LedgerError("BAD_ENCODING", "privilege count")
    privs = []
    for _ in range(nprivs):
        plen = r.u32()
        if plen > MAX_PRIVILEGE_LEN:
            raise LedgerError("BAD_ENCODING", "privilege length")
        privs.append(r.take(plen))
    issued_at = r.u64()
    expires_at = r.u64()
    nonce = r.u64()
    return AccessToken(pseudonym, issuer, audience, resource, tuple(privs),
                       issued_at, expires_at, nonce)


# ===========================================================================
# Transactions
# ===========================================================================

class _TxFields(NamedTuple):
    kind: TxKind
    payload: bytes          # parsed by kind through .data
    sender_pub: bytes
    txid: bytes
    sig: bytes


class Transaction(_TxFields):
    # Each of these is computed once per Transaction object; a tx that
    # every replica applies is one object in a run and one per read of the
    # ledger file.
    @cached_property
    def sender(self) -> bytes:
        return crypto.address_of(self.sender_pub)

    @cached_property
    def txid_ok(self) -> bool:
        """Whether txid is the digest of everything it covers."""
        return sha256(canonical_serialize(self)) == self.txid

    @cached_property
    def data(self) -> TokenData | FeedbackData | RegisterData:
        """The parsed payload; raises LedgerError on a malformed one."""
        if len(self.payload) > MAX_PAYLOAD_LEN:
            raise LedgerError("BAD_ENCODING", "payload length")
        if self.kind == TxKind.TOKEN:
            return parse_token_data(self.payload)
        if self.kind == TxKind.FEEDBACK:
            return parse_feedback(self.payload)
        return parse_register(self.payload)

    @property
    def sig_triple(self) -> tuple[bytes, bytes, bytes]:
        """What validate_tx passes to crypto.verify."""
        return self.sender_pub, self.txid, self.sig


class TokenData(NamedTuple):
    """Payload of a TOKEN transaction: the token, and the user profile
    encrypted for the token's audience. Only addresses are in clear."""

    token: AccessToken
    enc_user: Ciphertext


class FeedbackData(NamedTuple):
    """Payload of a FEEDBACK transaction: the token rated, and the label.

    Labels 0-4 rate user credibility (submitted by the serving foreign
    provider, the token's audience); labels 5-9 rate provider satisfaction
    (submitted by the home provider, its issuer, on the user's behalf).
    The rater is the sender; the subject and the user are read from the
    token (feedback_parties), so the payload carries neither.
    """

    token_id: bytes
    label: int


def feedback_parties(token: AccessToken, label: int) -> tuple[bytes, bytes]:
    """(rater, subject) of a label about token: its audience rates its
    issuer on the credibility scale, and its issuer rates its audience on
    the satisfaction scale."""
    if label <= 4:
        return token.audience, token.issuer
    return token.issuer, token.audience


class RegisterData(NamedTuple):
    weight_sat: int         # fixed-point declared weights
    weight_auth: int
    stake: int              # fixed-point declared stake
    pinned: bool = False    # consensus trust pinned to zero: never generates


def _ser_ciphertext(ct: Ciphertext) -> bytes:
    return b"".join([ct.ephemeral_pub, ct.nonce,
                     _u32(len(ct.body)), ct.body, ct.tag])


def _parse_ciphertext(r: _Reader) -> Ciphertext:
    eph = r.take(crypto.PUBKEY_LEN)
    nonce = r.take(12)
    body = r.take(r.u32())
    tag = r.take(16)
    return Ciphertext(eph, nonce, body, tag)


def canonical_serialize(tx: Transaction) -> bytes:
    """Everything the txid covers: all fields except txid and sig."""
    return b"".join([_u8(tx.kind), _u32(len(tx.payload)), tx.payload,
                     tx.sender_pub])


def tx_to_wire(tx: Transaction) -> bytes:
    return tx.txid + canonical_serialize(tx) + tx.sig


def tx_from_wire(data: bytes) -> Transaction:
    r = _Reader(data)
    txid = r.take(DIGEST_LEN)
    kind_raw = r.u8()
    try:
        kind = TxKind(kind_raw)
    except ValueError:
        raise LedgerError("BAD_ENCODING", f"unknown tx kind {kind_raw}") from None
    plen = r.u32()
    if plen > MAX_PAYLOAD_LEN:
        raise LedgerError("BAD_ENCODING", "payload length")
    payload = r.take(plen)
    sender_pub = r.take(crypto.PUBKEY_LEN)
    sig = r.take(crypto.SIG_LEN)
    if not r.done():
        raise LedgerError("BAD_ENCODING", "trailing bytes after transaction")
    # Every field is fixed-width or length-prefixed, so the accepted bytes
    # are exactly tx_to_wire of the result; checking the txid and parsing
    # the payload are the validator's job.
    return Transaction(kind, payload, sender_pub, txid, sig)


def make_transaction(kind: TxKind, payload: bytes,
                     key: KeyPair) -> Transaction:
    tx = Transaction(kind, payload, key.pub_bytes, b"", b"")
    txid = sha256(canonical_serialize(tx))
    return tx._replace(txid=txid, sig=crypto.sign(key, txid))


def ser_token_data(td: TokenData) -> bytes:
    return ser_token(td.token) + _ser_ciphertext(td.enc_user)


def parse_token_data(payload: bytes) -> TokenData:
    r = _Reader(payload)
    token = _parse_token(r)
    enc_user = _parse_ciphertext(r)
    if not r.done():
        raise LedgerError("BAD_ENCODING", "trailing token bytes")
    return TokenData(token, enc_user)


def ser_feedback(fb: FeedbackData) -> bytes:
    return fb.token_id + _u8(fb.label)


def parse_feedback(payload: bytes) -> FeedbackData:
    r = _Reader(payload)
    token_id = r.take(DIGEST_LEN)
    label = r.u8()
    if not r.done():
        raise LedgerError("BAD_ENCODING", "trailing feedback bytes")
    return FeedbackData(token_id, label)


def ser_register(reg: RegisterData) -> bytes:
    out = _u64(reg.weight_sat) + _u64(reg.weight_auth) + _u64(reg.stake)
    return out + REGISTER_PINNED if reg.pinned else out


def parse_register(payload: bytes) -> RegisterData:
    r = _Reader(payload)
    weight_sat, weight_auth, stake = r.u64(), r.u64(), r.u64()
    tail = payload[r.off:]
    if tail not in (b"", REGISTER_PINNED):
        raise LedgerError("BAD_ENCODING", "trailing registration bytes")
    return RegisterData(weight_sat, weight_auth, stake, pinned=bool(tail))


# ===========================================================================
# Builders
# ===========================================================================

def build_token_tx(issuer: KeyPair, user_info: bytes, audience_pub: bytes,
                   token: AccessToken, rng: DetRng) -> Transaction:
    """Issue a token: the token and the user profile encrypted for the
    audience's key, signed by the issuer."""
    if token.issuer != issuer.address:
        raise LedgerError("TOKEN_SHAPE", "issuer key does not match token issuer")
    enc = crypto.encrypt_for(audience_pub, user_info, rng)
    payload = ser_token_data(TokenData(token, enc))
    return make_transaction(TxKind.TOKEN, payload, issuer)


def build_feedback_tx(rater: KeyPair, fb: FeedbackData) -> Transaction:
    return make_transaction(TxKind.FEEDBACK, ser_feedback(fb), rater)


def build_register_tx(key: KeyPair, reg: RegisterData) -> Transaction:
    return make_transaction(TxKind.REGISTER, ser_register(reg), key)


# ===========================================================================
# Blocks
# ===========================================================================

GENESIS_PUB_MAGIC = b"CTSIMG"
GENESIS_SIG = b"\x00" * crypto.SIG_LEN

_HEADER_CORE_LEN = 8 + 32 + 32 + 8 + 33 + 32 + 8


def pack_genesis_pub(interval_ms: int, slot_ms: int, k_bits: int,
                     time_cap: int) -> bytes:
    """Consensus parameters ride in the genesis generator_pub slot (no key
    signs genesis), so a ledger file is verifiable with no side channel."""
    packed = (GENESIS_PUB_MAGIC + _u32(interval_ms) + _u32(slot_ms)
              + _u8(k_bits) + _u16(time_cap))
    return packed + b"\x00" * (crypto.PUBKEY_LEN - len(packed))


class ConsensusParams(NamedTuple):
    """The consensus parameters a genesis carries, with their defaults."""
    base_target: int                  # fixed-point d
    k_bits: int = 64
    block_interval_ms: int = 300
    slot_ms: int = 100
    time_cap_intervals: int = 64


def params_fault(p: ConsensusParams) -> tuple[str, str] | None:
    """The first parameter of p out of its range, with the rule it breaks,
    or None. The ranges of the packed parameters stay inside the widths
    pack_genesis_pub gives them."""
    if not 0 < p.block_interval_ms < 1 << 32:
        return "block_interval_ms", "must be a positive integer below 2^32"
    if not 0 < p.slot_ms <= p.block_interval_ms:
        return "slot_ms", "must be positive and at most the interval"
    if p.k_bits not in (64, 128):
        return "k_bits", "must be 64 or 128"
    if not 0 < p.time_cap_intervals < 1 << 16:
        return "time_cap_intervals", "must be a positive integer below 2^16"
    if not 0 < p.base_target < ONE:
        return "base_target", "must lie strictly inside (0, 1)"
    return None


def register_fault(reg: RegisterData,
                   registered: Collection[RegisterData]) -> str | None:
    """The reason a REGISTER of reg after those of registered is refused,
    or None."""
    if not (0 <= reg.weight_sat <= ONE and 0 <= reg.weight_auth <= ONE):
        return "WEIGHT_RANGE"
    if reg.weight_sat == 0 and reg.weight_auth == 0:
        return "WEIGHT_ZERO"
    if not 0 <= reg.stake <= ONE:
        return "STAKE_RANGE"
    # trust weighs scores by the floored means of every registrant's
    # weights (TrustState.global_weights), so one mean must stay nonzero
    # once this registrant counts
    n = len(registered) + 1
    w_sat = reg.weight_sat + sum(r.weight_sat for r in registered)
    w_auth = reg.weight_auth + sum(r.weight_auth for r in registered)
    if w_sat < n and w_auth < n:
        return "WEIGHT_MEAN_ZERO"
    return None


def genesis_params(header: BlockHeader) -> ConsensusParams | None:
    """The consensus parameters a genesis header carries, base_target in
    its own field and the rest packed in generator_pub; None if any of
    them is malformed or out of range."""
    pub = header.generator_pub
    if len(pub) != crypto.PUBKEY_LEN or not pub.startswith(GENESIS_PUB_MAGIC):
        return None
    r = _Reader(pub[len(GENESIS_PUB_MAGIC):])
    interval_ms, slot_ms, k_bits, time_cap = r.u32(), r.u32(), r.u8(), r.u16()
    if any(r.data[r.off:]):
        return None
    params = ConsensusParams(header.base_target, k_bits, interval_ms,
                             slot_ms, time_cap)
    return None if params_fault(params) else params


class _HeaderFields(NamedTuple):
    height: int
    prev_block: bytes
    tx_root: bytes
    timestamp: int          # simulated ms
    generator_pub: bytes
    prf: bytes              # proof of eligibility
    base_target: int        # fixed-point d in force at generation
    sig: bytes              # over h_blk; all-zero in genesis


class BlockHeader(_HeaderFields):
    @cached_property
    def core_bytes(self) -> bytes:
        return b"".join([_u64(self.height), self.prev_block, self.tx_root,
                         _u64(self.timestamp), self.generator_pub, self.prf,
                         _u64(self.base_target)])

    @cached_property
    def h_blk(self) -> bytes:
        return sha256(self.core_bytes)

    @property
    def sig_triple(self) -> tuple[bytes, bytes, bytes]:
        """What consensus.validate_block passes to crypto.verify."""
        return self.generator_pub, self.h_blk, self.sig


class Block(NamedTuple):
    header: BlockHeader
    txs: tuple[Transaction, ...]

    @property
    def h_blk(self) -> bytes:
        return self.header.h_blk

    @property
    def height(self) -> int:
        return self.header.height


def compute_tx_root(txs) -> bytes:
    return sha256(b"".join(tx.txid for tx in txs))


def ser_block(blk: Block) -> bytes:
    parts = [blk.header.core_bytes, blk.header.sig, _u32(len(blk.txs))]
    for tx in blk.txs:
        wire = tx_to_wire(tx)
        parts.append(_u32(len(wire)))
        parts.append(wire)
    return b"".join(parts)


def block_from_wire(data: bytes) -> Block:
    r = _Reader(data)
    core = _Reader(r.take(_HEADER_CORE_LEN))
    header = BlockHeader(
        height=core.u64(), prev_block=core.take(DIGEST_LEN),
        tx_root=core.take(DIGEST_LEN), timestamp=core.u64(),
        generator_pub=core.take(crypto.PUBKEY_LEN),
        prf=core.take(DIGEST_LEN), base_target=core.u64(),
        sig=r.take(crypto.SIG_LEN))
    ntx = r.u32()
    if ntx > MAX_TXS_PER_BLOCK:
        raise LedgerError("BAD_ENCODING", "transaction count")
    txs = []
    for _ in range(ntx):
        tlen = r.u32()
        txs.append(tx_from_wire(r.take(tlen)))
    if not r.done():
        raise LedgerError("BAD_ENCODING", "trailing bytes after block")
    return Block(header, tuple(txs))


def genesis_prf(header: BlockHeader) -> bytes:
    # no key signs genesis; bind every header field into its prf instead
    unsigned = header._replace(prf=ZERO_DIGEST)
    return sha256(b"ctsim-genesis" + unsigned.core_bytes)


def make_genesis(register_txs, base_target: int, **params) -> Block:
    """Height 0 with the given REGISTERs and consensus parameters: params
    are ConsensusParams fields, each left out at its default. Nothing is
    range-checked here; params_fault does that."""
    p = ConsensusParams(base_target, **params)
    txs = tuple(register_txs)
    header = BlockHeader(height=0, prev_block=ZERO_DIGEST,
                         tx_root=compute_tx_root(txs), timestamp=0,
                         generator_pub=pack_genesis_pub(
                             p.block_interval_ms, p.slot_ms, p.k_bits,
                             p.time_cap_intervals),
                         prf=ZERO_DIGEST, base_target=base_target,
                         sig=GENESIS_SIG)
    return Block(header._replace(prf=genesis_prf(header)), txs)


def check_genesis_shape(blk: Block) -> ConsensusParams:
    """The consensus parameters of a well-formed height 0, where every
    field is pinned or bound; LedgerError naming the first defect."""
    h = blk.header
    if h.height != 0 or h.prev_block != ZERO_DIGEST:
        raise LedgerError("BAD_LINK", "genesis")
    if h.timestamp != 0:
        raise LedgerError("TIMESTAMP", "genesis")
    params = genesis_params(h)
    if params is None or h.sig != GENESIS_SIG:
        raise LedgerError("BAD_SIGNATURE", "genesis")
    if h.tx_root != compute_tx_root(blk.txs):
        raise LedgerError("BAD_TX_ROOT", "genesis")
    if h.prf != genesis_prf(h):
        raise LedgerError("PRF_MISMATCH", "genesis")
    if not blk.txs or not all(tx.kind == TxKind.REGISTER for tx in blk.txs):
        raise LedgerError("BAD_ENCODING", "genesis")
    return params


# ===========================================================================
# Chain state
# ===========================================================================

_ABSENT = object()          # journal marker: the key was not in the table


class Journal:
    """The one undo log for a replica's dict state: the chain's indices and
    the trust fold write through the same instance.

    Every write goes through set(), which logs (table, key, previous value
    or absent). undo(mark) rolls back to an earlier mark() strictly
    last-first, so each table's insertion order comes back too.
    """

    def __init__(self):
        self._log: list[tuple[dict, object, object]] = []

    def mark(self) -> int:
        return len(self._log)

    def set(self, table: dict, key, value) -> None:
        self._log.append((table, key, table.get(key, _ABSENT)))
        table[key] = value

    def undo(self, mark: int) -> None:
        log = self._log
        while len(log) > mark:
            table, key, prev = log.pop()
            if prev is _ABSENT:
                del table[key]
            else:
                table[key] = prev


class GenRecord(NamedTuple):
    """Per-generator production history (consensus clock source)."""
    last_timestamp: int
    prf_old: bytes


class Chain:
    """A node's canonical replica: block list plus uniqueness indices.

    The consensus parameters (params) are read from the genesis alone,
    once, as it is checked. The genesis is then applied like any later
    block, so its registrations pass the same per-transaction validation;
    LedgerError carries the first failure. The set-like indices map their
    keys to None. Every index write goes through one Journal under a mark
    per height, so pop_block() and a rejected block undo exactly what the
    block wrote.
    """

    def __init__(self, genesis: Block):
        self.params = check_genesis_shape(genesis)
        self.blocks: list[Block] = []
        self.token_index: dict[bytes, AccessToken] = {}
        self.nonce_index: dict[tuple[bytes, int], None] = {}
        self.txids: dict[bytes, None] = {}
        self.feedback_seen: dict[tuple[bytes, bytes], None] = {}
        self.registered: dict[bytes, RegisterData] = {}
        self.gen_records: dict[bytes, GenRecord] = {}
        self.journal = Journal()
        # per height: the journal mark before that block's writes
        self._marks: list[int] = []
        self.cum_trust: list[int] = []
        self.apply_block(genesis, 0)

    # -- views ------------------------------------------------------------

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    @property
    def genesis(self) -> Block:
        return self.blocks[0]

    def lookup_token(self, token_id: bytes) -> AccessToken | None:
        return self.token_index.get(token_id)

    def total_declared_stake(self) -> int:
        return sum(r.stake for r in self.registered.values())

    def gen_record(self, address: bytes) -> GenRecord:
        rec = self.gen_records.get(address)
        if rec is not None:
            return rec
        # never generated: clock runs from genesis, prf chain from its seed
        return GenRecord(self.genesis.header.timestamp,
                         sha256(self.genesis.h_blk + address))

    # -- transaction validation -------------------------------------------

    def validate_tx(self, tx: Transaction) -> str | None:
        """Reason code for rejection, or None if the tx is acceptable."""
        if not tx.txid_ok:
            return "BAD_TXID"
        if tx.txid in self.txids:
            return "DUPLICATE_TX"
        if not crypto.verify(*tx.sig_triple):
            return "BAD_SIGNATURE"
        try:
            data = tx.data
        except LedgerError:
            return "BAD_ENCODING"
        if tx.kind == TxKind.TOKEN:
            return self._validate_token(tx.sender, data.token)
        if tx.kind == TxKind.FEEDBACK:
            return self._validate_feedback(tx.sender, data)
        if tx.sender in self.registered:
            return "DUPLICATE_CSP"
        return register_fault(data, self.registered.values())

    def _validate_token(self, sender: bytes, token: AccessToken) -> str | None:
        if sender not in self.registered:
            return "UNKNOWN_ISSUER"
        if token.issuer != sender:
            return "TOKEN_SHAPE"
        if token.expires_at <= token.issued_at:
            return "EXPIRY"
        if token.token_id in self.token_index:
            return "DUPLICATE_TOKEN"
        if (token.issuer, token.nonce) in self.nonce_index:
            return "DUPLICATE_NONCE"
        return None

    def _validate_feedback(self, sender: bytes,
                           fb: FeedbackData) -> str | None:
        if sender not in self.registered:
            return "UNKNOWN_RATER"
        if fb.label > 9:
            return "LABEL_RANGE"
        token = self.lookup_token(fb.token_id)
        if token is None:
            return "UNKNOWN_TOKEN"
        if sender != feedback_parties(token, fb.label)[0]:
            return "NOT_PARTICIPANT"
        if (fb.token_id, sender) in self.feedback_seen:
            return "DUPLICATE_FEEDBACK"
        return None

    # -- block application -------------------------------------------------

    def try_absorb(self, tx: Transaction) -> str | None:
        """validate_tx, then absorb tx if it passed; the reason or None."""
        reason = self.validate_tx(tx)
        if reason is None:
            self._absorb(tx)
        return reason

    def apply_block(self, blk: Block, generator_trust: int = 0) -> None:
        """Extend the chain by a block whose header has passed its check:
        consensus.validate_block (linkage and tx_root included), or
        check_genesis_shape at height 0. Atomic: each tx is checked against
        the chain plus the ones before it in the block; on a rejected tx the
        block's writes are undone and LedgerError names that tx.
        """
        mark = self.journal.mark()
        for tx in blk.txs:
            reason = self.try_absorb(tx)
            if reason:
                self.journal.undo(mark)
                raise LedgerError(reason, f"tx {tx.txid.hex()[:16]}",
                                  txid=tx.txid, height=blk.height)
        if blk.height > 0:
            self.journal.set(self.gen_records,
                             crypto.address_of(blk.header.generator_pub),
                             GenRecord(blk.header.timestamp, blk.header.prf))
        self._marks.append(mark)
        self.blocks.append(blk)
        prev = self.cum_trust[-1] if self.cum_trust else 0
        self.cum_trust.append(prev + generator_trust)

    def pop_block(self) -> Block:
        """Undo the tip block exactly, the inverse of apply_block."""
        if self.height == 0:
            raise ValueError("genesis cannot be popped")
        self.cum_trust.pop()
        self.journal.undo(self._marks.pop())
        return self.blocks.pop()

    def _absorb(self, tx: Transaction) -> None:
        """Add one validated tx's index keys, each through the journal."""
        put = self.journal.set
        put(self.txids, tx.txid, None)
        if tx.kind == TxKind.TOKEN:
            token = tx.data.token
            put(self.token_index, token.token_id, token)
            put(self.nonce_index, (token.issuer, token.nonce), None)
        elif tx.kind == TxKind.FEEDBACK:
            put(self.feedback_seen, (tx.data.token_id, tx.sender), None)
        else:
            put(self.registered, tx.sender, tx.data)


# ===========================================================================
# Ledger file
# ===========================================================================

def write_ledger(path, blocks) -> None:
    with open(path, "wb") as fh:
        fh.write(LEDGER_MAGIC)
        for blk in blocks:
            wire = ser_block(blk)
            fh.write(_u32(len(wire)))
            fh.write(wire)


def read_ledger(path) -> list[Block]:
    """Parse a ledger file strictly; LedgerError on any framing defect."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(LEDGER_MAGIC):
        raise LedgerError("BAD_ENCODING", "bad magic")
    r = _Reader(data[len(LEDGER_MAGIC):])
    blocks = []
    while not r.done():
        try:
            blen = r.u32()
            if blen > MAX_BLOCK_LEN:
                raise LedgerError("BAD_ENCODING", "block length")
            blocks.append(block_from_wire(r.take(blen)))
        except LedgerError as exc:
            exc.height = len(blocks)
            raise
    if not blocks:
        raise LedgerError("BAD_ENCODING", "empty ledger")
    return blocks
