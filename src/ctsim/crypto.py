"""Keys, signatures, hashing, addresses and user-data encryption.

Every provider owns a secp256k1 keypair; child keys for user pseudonyms are
derived additively from the parent key. Signing is ECDSA with RFC 6979
deterministic nonces so identical runs produce identical bytes.
Verification is memoized per (key, digest, signature), and a ledger
replay checks its signatures ahead of time on every CPU the process may
use (:func:`verify_many`). Inside :func:`defer_own_checks`, the check
of a signature this process made itself, valid from :func:`sign` or
corrupted on purpose (:func:`record_corrupted`), moves off the caller's
path: it streams to one forked checker process, whose verdicts are
compared with the ones assumed before the block ends, or is made at the
end of the block if no checker runs. User profile data
travels encrypted under an ECIES-style hybrid scheme (ephemeral ECDH +
AES-256-GCM).

All randomness used here is caller-supplied via :class:`DetRng`, a SHA-256
counter DRBG, which keeps whole-simulation determinism in one seed.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ._ecbackend import N, P, scalar_base_mult, scalar_mult, shamir_mult

__all__ = [
    "KeyPair",
    "Ciphertext",
    "DetRng",
    "CryptoError",
    "sha256",
    "address_of",
    "resource_address",
    "generate_keypair",
    "derive_child_key",
    "sign",
    "verify",
    "verify_many",
    "defer_own_checks",
    "record_corrupted",
    "encrypt_for",
]

DIGEST_LEN = 32
ADDRESS_LEN = 20
PUBKEY_LEN = 33
SIG_LEN = 64

ZERO_DIGEST = b"\x00" * DIGEST_LEN

_HALF_N = N // 2


class CryptoError(Exception):
    pass


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def address_of(pub_bytes: bytes) -> bytes:
    """20-byte address: truncated digest of the compressed public key."""
    return sha256(pub_bytes)[:ADDRESS_LEN]


def resource_address(label: str) -> bytes:
    """20-byte address for an abstract resource identifier."""
    return sha256(label.encode())[:ADDRESS_LEN]


# ---------------------------------------------------------------------------
# Deterministic randomness
# ---------------------------------------------------------------------------

class DetRng:
    """SHA-256 counter DRBG; every stream is a pure function of the seed.

    Streams fork with :meth:`child`, so nodes and subsystems draw from
    independent sequences that are all rooted in the single scenario seed.
    """

    def __init__(self, seed: bytes | int, label: bytes = b""):
        if isinstance(seed, int):
            seed = seed.to_bytes(16, "big", signed=True)
        self._key = sha256(len(seed).to_bytes(4, "big") + seed + label)
        self._counter = 0

    def child(self, label: str | bytes) -> "DetRng":
        if isinstance(label, str):
            label = label.encode()
        return DetRng(self._key, b"/" + label)

    def take(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += sha256(self._key + self._counter.to_bytes(8, "big"))
            self._counter += 1
        return bytes(out[:n])

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def randbelow(self, bound: int) -> int:
        """Uniform draw in [0, bound) by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbits = bound.bit_length()
        nbytes = (nbits + 7) // 8
        mask = (1 << nbits) - 1
        while True:
            v = int.from_bytes(self.take(nbytes), "big") & mask
            if v < bound:
                return v


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyPair:
    private_key: int
    public_key: tuple[int, int]  # affine coordinates

    @property
    def pub_bytes(self) -> bytes:
        return compress_point(self.public_key)

    @property
    def address(self) -> bytes:
        return address_of(self.pub_bytes)


def compress_point(point: tuple[int, int]) -> bytes:
    x, y = point
    return bytes([0x02 | (y & 1)]) + x.to_bytes(32, "big")


@lru_cache(maxsize=4096)
def decompress_point(pub_bytes: bytes) -> tuple[int, int] | None:
    """SEC1 compressed key -> affine point, or None if malformed."""
    if len(pub_bytes) != PUBKEY_LEN or pub_bytes[0] not in (0x02, 0x03):
        return None
    x = int.from_bytes(pub_bytes[1:], "big")
    if x >= P:
        return None
    y2 = (pow(x, 3, P) + 7) % P
    y = pow(y2, (P + 1) // 4, P)  # p % 4 == 3
    if (y * y) % P != y2:
        return None
    if (y & 1) != (pub_bytes[0] & 1):
        y = P - y
    return (x, y)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a keypair from 32 bytes of entropy.

    The seed itself is the first candidate scalar; out-of-range candidates
    (zero or >= group order) are replaced by hashing the seed with an
    incrementing counter until a valid scalar appears.
    """
    if len(seed) != 32:
        raise CryptoError("seed must be 32 bytes")
    k = int.from_bytes(seed, "big")
    counter = 0
    while not 1 <= k < N:
        counter += 1
        k = int.from_bytes(sha256(seed + counter.to_bytes(4, "big")), "big")
    return KeyPair(k, scalar_base_mult(k))


def derive_child_key(parent: KeyPair, index: int) -> KeyPair:
    """Additive (non-hardened) child derivation from the parent key.

    child = parent + int(SHA-256(parent_pub || index_be32)) mod n; a zero
    result is re-derived with a counter suffix, mirroring generate_keypair.
    """
    base = parent.pub_bytes + index.to_bytes(4, "big")
    k = (parent.private_key + int.from_bytes(sha256(base), "big")) % N
    counter = 0
    while k == 0:
        counter += 1
        tweak = int.from_bytes(sha256(base + counter.to_bytes(4, "big")), "big")
        k = (parent.private_key + tweak) % N
    return KeyPair(k, scalar_base_mult(k))


# ---------------------------------------------------------------------------
# ECDSA (RFC 6979 nonces, low-s form)
# ---------------------------------------------------------------------------

def _rfc6979_nonce(priv: int, msg: bytes) -> int:
    x = priv.to_bytes(32, "big")
    h = (int.from_bytes(msg, "big") % N).to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + x + h, "sha256").digest()
    v = hmac.new(k, v, "sha256").digest()
    k = hmac.new(k, v + b"\x01" + x + h, "sha256").digest()
    v = hmac.new(k, v, "sha256").digest()
    while True:
        v = hmac.new(k, v, "sha256").digest()
        cand = int.from_bytes(v, "big")
        if 1 <= cand < N:
            return cand
        k = hmac.new(k, v + b"\x00", "sha256").digest()
        v = hmac.new(k, v, "sha256").digest()


def sign(key: KeyPair, msg: bytes) -> bytes:
    """Sign a 32-byte digest; returns the 64-byte r||s encoding."""
    if len(msg) != DIGEST_LEN:
        raise CryptoError("sign expects a 32-byte digest")
    z = int.from_bytes(msg, "big") % N
    k = _rfc6979_nonce(key.private_key, msg)
    while True:
        pt = scalar_base_mult(k)
        r = pt[0] % N
        if r != 0:
            s = (pow(k, -1, N) * (z + r * key.private_key)) % N
            if s != 0:
                break
        # astronomically unlikely; retry with the next counter-hashed nonce
        k = _rfc6979_nonce(key.private_key, sha256(msg))
    if s > _HALF_N:
        s = N - s
    sig = r.to_bytes(32, "big") + s.to_bytes(32, "big")
    if _own is not None:
        _own.record((key.pub_bytes, msg, sig), True)
    return sig


def _verify_uncached(pub_bytes: bytes, msg: bytes, sig: bytes) -> bool:
    if len(msg) != DIGEST_LEN or len(sig) != SIG_LEN:
        return False
    point = decompress_point(pub_bytes)
    if point is None:
        return False
    r = int.from_bytes(sig[:32], "big")
    s = int.from_bytes(sig[32:], "big")
    if not (1 <= r < N and 1 <= s <= _HALF_N):  # low-s only, blocks malleation
        return False
    z = int.from_bytes(msg, "big") % N
    w = pow(s, -1, N)
    res = shamir_mult((z * w) % N, (r * w) % N, point[0], point[1])
    return res is not None and res[0] % N == r


# (pub_bytes, msg, sig) -> verdict, oldest first; evicted in insertion order
_verify_memo: dict[tuple, bool] = {}
_VERIFY_MEMO_MAX = 1 << 16

# fan-out is worth a fork only with this many uncached triples per CPU: a
# fork, pipe and wait round trip (2.7-3.4 ms) costs about as much as 3
# checks (0.75-1.0 ms each with the key's comb table warm)
_MIN_SHARE = 16

# bytes of a triple streamed to a checker: a compressed key, a digest and
# r || s. Every triple a run makes has these widths.
_TRIPLE_LEN = PUBKEY_LEN + DIGEST_LEN + SIG_LEN


class _OwnChecks:
    """The checks owed on triples made inside defer_own_checks()."""

    def __init__(self):
        # triples made here that verify() was not yet asked about, each
        # with the verdict assumed for it; oldest first, capped like the memo
        self.made: dict[tuple, bool] = {}
        # (triple, verdict assumed) per triple verify() answered from made,
        # in the order the checker got them
        self.owed: list[tuple] = []
        # the run's checker; None on one CPU, or once it failed
        self.checker = _Checker.fork([]) if _cpus() > 1 else None

    def record(self, triple: tuple, ok: bool) -> None:
        if len(self.made) >= _VERIFY_MEMO_MAX:
            del self.made[next(iter(self.made))]
        self.made[triple] = ok

    def owe(self, triple: tuple, ok: bool) -> bool:
        """Owe triple a check and stream it to the checker; returns ok, the
        verdict assumed. A checker that cannot take it is killed."""
        self.owed.append((triple, ok))
        if self.checker is not None and not self.checker.send(triple):
            self.checker.kill()
            self.checker = None
        return ok

    def settle(self) -> None:
        """Check every owed triple; CryptoError if a verdict is not the one
        assumed. Without the checker's full output, they are checked here."""
        out = None
        if self.checker is not None:
            out = self.checker.verdicts(len(self.owed))
            self.checker = None
        if out is None:
            out = [_verify_uncached(*triple) for triple, _ in self.owed]
        for (_, assumed), ok in zip(self.owed, out):
            if bool(ok) != assumed:
                raise CryptoError("a signature check owed in this run "
                                  "refutes the verdict it was given")


# the checks owed while defer_own_checks() is open, else None
_own: _OwnChecks | None = None


def _remember(triple: tuple, ok: bool) -> bool:
    if len(_verify_memo) >= _VERIFY_MEMO_MAX:
        del _verify_memo[next(iter(_verify_memo))]
    _verify_memo[triple] = ok
    return ok


def verify(pub_bytes: bytes, msg: bytes, sig: bytes) -> bool:
    """True iff sig is a valid low-s signature on msg under the given key.

    Malformed keys or signatures return False rather than raising. Results
    are memoized: the same triple is re-checked constantly as transactions
    and blocks are validated by every replica. Inside defer_own_checks(),
    a triple that sign() returned there is answered True, and one passed
    to record_corrupted() False, and each is owed a check.
    """
    triple = (pub_bytes, msg, sig)
    try:
        ok = _verify_memo.get(triple)
        if ok is None:
            made = None if _own is None else _own.made.pop(triple, None)
            if made is None:
                ok = _remember(triple, _verify_uncached(*triple))
            else:
                ok = _remember(triple, _own.owe(triple, made))
        return ok
    except TypeError:
        return False


def record_corrupted(pub_bytes: bytes, msg: bytes, sig: bytes) -> None:
    """Note a triple this process made invalid on purpose, such as a
    signature with a flipped byte. Inside defer_own_checks(), verify()
    answers it False and owes it a check; elsewhere this does nothing."""
    triple = (pub_bytes, msg, sig)
    if _own is not None and tuple(map(len, triple)) == (PUBKEY_LEN,
                                                        DIGEST_LEN, SIG_LEN):
        _own.record(triple, False)


def _cpus() -> int:
    """CPUs a fan-out may use: 1 without sched_getaffinity, or while other
    threads run (forking those is unsafe)."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or threading.active_count() != 1:
        return 1
    return len(affinity(0))


def verify_many(triples) -> None:
    """Check (pub_bytes, msg, sig) triples ahead of verify(), on every CPU.

    Only seeds the memo, so a later verify() of any triple returns the same
    verdict it would have computed itself. Uncached triples are split into
    contiguous shares; one checker per extra CPU gets a share and nothing
    more to read, while this process checks the first. Without a second
    CPU, with other threads running (forking those is unsafe) or with
    fewer than _MIN_SHARE triples per share, nothing is checked here and
    verify() works lazily. A share whose checker fails stays unseeded, so
    verify() checks it lazily too.
    """
    cpus = _cpus()
    if cpus < 2:
        return
    # more new triples than the memo holds would evict each other unused
    todo = [t for t in dict.fromkeys(triples) if t not in _verify_memo]
    todo = todo[:_VERIFY_MEMO_MAX]
    nshares = min(cpus, len(todo) // _MIN_SHARE)
    if nshares < 2:
        return
    cuts = [len(todo) * i // nshares for i in range(nshares + 1)]
    shares = [todo[a:b] for a, b in zip(cuts, cuts[1:])]
    helpers = []
    try:
        for share in shares[1:]:
            checker = _Checker.fork(share)
            if checker is not None:
                checker.end_input()
                helpers.append((checker, share))
        for triple in shares[0]:
            _remember(triple, _verify_uncached(*triple))
        while helpers:
            checker, share = helpers[0]
            out = checker.verdicts(len(share))
            helpers.pop(0)
            for triple, ok in zip(share, out or b""):
                _remember(triple, ok == 1)
    finally:
        for checker, _ in helpers:
            checker.kill()


@contextmanager
def defer_own_checks():
    """Check the triples this process makes inside the block off the
    caller's path, and all of them before the block ends.

    A checker process is forked as the block opens, when _cpus(), the
    rule verify_many forks by, reports a second CPU. sign() records each
    triple it returns, and record_corrupted() each one made invalid on
    purpose;
    verify() answers a recorded triple True or False without curve work,
    owes it a check and streams it to the checker. When the block ends,
    the checker's verdicts are read and each is compared with the one
    assumed: a mismatch raises CryptoError. Without a checker, or if it
    fails, every owed triple is checked here. A correct sign() makes only
    valid low-s signatures, and a flipped byte of one cannot verify, so
    each verdict verify() gave is the one it would have computed. Other
    triples are checked at once, as outside the block. If the block
    raises, the checker is killed and the verdicts assumed leave the memo.
    """
    global _own
    own = _own = _OwnChecks()
    settled = False
    try:
        yield
        _own = None
        own.settle()
        settled = True
    finally:
        _own = None
        if own.checker is not None:
            own.checker.kill()
        if not settled:
            for triple, _ in own.owed:
                _verify_memo.pop(triple, None)


class _Checker:
    """A forked process that checks a share of triples, then each triple
    sent to its input, and writes one verdict byte per triple, in that
    order, once its input closes. So it never blocks on output its parent
    has not read yet, and a send blocks only while it lags a full pipe
    buffer behind."""

    def __init__(self, pid: int, fd: int, pipe):
        self.pid = pid
        self.fd: int | None = fd    # the input's write end until closed
        self.pipe = pipe            # the output's read end

    @classmethod
    def fork(cls, share: list) -> "_Checker | None":
        """Start a checker on share; None if none started."""
        fds: list[int] = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return None
        rin, win, rout, wout = fds
        if pid == 0:
            code = 1
            try:
                os.close(win)
                os.close(rout)
                _leave_parent_cpu()
                out = bytearray(_verify_uncached(*t) for t in share)
                with os.fdopen(rin, "rb") as src:
                    while rec := src.read(_TRIPLE_LEN):
                        out.append(_verify_uncached(
                            rec[:PUBKEY_LEN], rec[PUBKEY_LEN:-SIG_LEN],
                            rec[-SIG_LEN:]))
                with os.fdopen(wout, "wb") as dst:
                    dst.write(out)
                code = 0
            finally:
                # skip the parent's exit handlers, buffered output and spans
                os._exit(code)
        os.close(rin)
        os.close(wout)
        return cls(pid, win, os.fdopen(rout, "rb"))

    def send(self, triple: tuple) -> bool:
        """Stream one fixed-width triple; False if the write failed."""
        try:
            return os.write(self.fd, b"".join(triple)) == _TRIPLE_LEN
        except OSError:
            return False

    def end_input(self) -> None:
        if self.fd is not None:
            os.close(self.fd)
            self.fd = None

    def verdicts(self, n: int) -> bytes | None:
        """End the input, read the output and reap the checker: its n
        verdict bytes, or None if it failed."""
        self.end_input()
        out = self.pipe.read()
        self.pipe.close()
        status = os.waitpid(self.pid, 0)[1]
        if os.waitstatus_to_exitcode(status) != 0 or len(out) != n:
            return None
        return out

    def kill(self) -> None:
        """Kill and reap a checker whose verdicts were never read."""
        self.end_input()
        self.pipe.close()
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


def _leave_parent_cpu() -> None:
    """Move this forked checker off the CPU it started on, its parent's.

    Left alone, a forked helper shared its parent's CPU while the other of
    two idled: beside one, 42 ms of the parent's work took 71-77 ms of
    wall time, and 42-52 ms once the helper moved. Where /proc/self/stat
    (Linux) cannot be read, the checker stays where it is."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            # field 39, the CPU last run on, counted after the ")" of comm
            cpu = int(fh.read().rsplit(b")", 1)[1].split()[36])
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})
    except (OSError, ValueError, IndexError):
        pass


# ---------------------------------------------------------------------------
# Hybrid encryption for user information
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ciphertext:
    ephemeral_pub: bytes  # compressed point, 33 bytes
    nonce: bytes          # 12 bytes
    body: bytes
    tag: bytes            # 16 bytes


def _shared_key(scalar: int, point: tuple[int, int]) -> bytes:
    shared = scalar_mult(scalar, point[0], point[1])
    if shared is None:
        raise CryptoError("degenerate ECDH result")
    return sha256(b"ctsim-ecies" + compress_point(shared))


def encrypt_for(recipient_pub: bytes, plaintext: bytes, rng: DetRng) -> Ciphertext:
    """Encrypt so that only the holder of the matching private key can read."""
    point = decompress_point(recipient_pub)
    if point is None:
        raise CryptoError("invalid recipient public key")
    eph = generate_keypair(rng.take(32))
    key = _shared_key(eph.private_key, point)
    nonce = rng.take(12)
    sealed = AESGCM(key).encrypt(nonce, plaintext, eph.pub_bytes)
    return Ciphertext(eph.pub_bytes, nonce, sealed[:-16], sealed[-16:])

