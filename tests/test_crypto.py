"""Keys, ECDSA, ECIES, AES-256-GCM and the deterministic RNG.

Signature and Diffie-Hellman correctness is cross-checked against the
OpenSSL implementation shipped in the cryptography package: our signatures
must verify there, theirs must verify here (after low-s normalization),
and ours must equal its RFC 6979 deterministic ones byte for byte. The
AES-256-GCM seal must give OpenSSL's bytes, and open
under OpenSSL's decryption. SHA-256 and the HMAC-SHA256 of RFC 6979, which
ctsim takes from CPython's builtin sha2, must equal hashlib's and hmac's.
That keeps the curve arithmetic, the cipher and the hashes honest without
trusting our own code to judge itself.
"""

import hashlib
import hmac
import os
import threading

import pytest
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed, decode_dss_signature, encode_dss_signature,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from ctsim import _aesgcm, _ecbackend, crypto
from ctsim._ecbackend import GX, GY, N, P
from ctsim.crypto import (
    Ciphertext, CryptoError, DetRng, KeyPair, address_of, compress_point,
    decompress_point, derive_child_key, encrypt_for,
    generate_keypair, resource_address, sha256, sign, verify,
)

_PREHASHED = ec.ECDSA(Prehashed(hashes.SHA256()))


def _openssl_priv(k: int) -> ec.EllipticCurvePrivateKey:
    return ec.derive_private_key(k, ec.SECP256K1())


def _openssl_pub(pub_bytes: bytes) -> ec.EllipticCurvePublicKey:
    return ec.EllipticCurvePublicKey.from_encoded_point(
        ec.SECP256K1(), pub_bytes)


class DecryptError(CryptoError):
    """Authentication failure when decrypting an Enc(U) blob."""


def decrypt(private_key: int, ct: Ciphertext) -> bytes:
    """The ECIES round-trip oracle: what the recipient of encrypt_for runs.

    Nothing in ctsim reads Enc(U) yet, so the inverse lives here; it goes
    through crypto's own key derivation, and so through its curve kernel.
    """
    point = decompress_point(ct.ephemeral_pub)
    if point is None:
        raise DecryptError("invalid ephemeral key")
    key = crypto._shared_key(private_key, point)
    try:
        return AESGCM(key).decrypt(ct.nonce, ct.body + ct.tag,
                                   ct.ephemeral_pub)
    except InvalidTag as exc:
        raise DecryptError("ciphertext authentication failed") from exc


# ---------------------------------------------------------------------------
# DetRng
# ---------------------------------------------------------------------------

def test_detrng_reproducible():
    assert DetRng(99).take(48) == DetRng(99).take(48)
    assert DetRng(99).take(48) != DetRng(100).take(48)
    assert DetRng(b"abc").take(16) == DetRng(b"abc").take(16)


def test_detrng_children_are_independent_of_parent_position():
    a = DetRng(5)
    early = a.child("x").take(8)
    a.take(1000)
    late = a.child("x").take(8)
    assert early == late            # forking depends on seed, not progress
    assert a.child("x").take(8) != a.child("y").take(8)


def test_detrng_seed_domain_separation():
    # length-prefixed seeding: these byte seeds must not collide
    assert DetRng(b"ab").take(8) != DetRng(b"a").child(b"b").take(8)
    assert DetRng(-1).take(8) != DetRng(1).take(8)
    assert DetRng(0).take(8) != DetRng(2**64 - 1).take(8)


def test_detrng_draw_sizes():
    r = DetRng(1)
    assert len(r.take(1)) == 1
    assert len(r.take(33)) == 33
    assert 0 <= r.u64() < 2**64
    assert r.randbelow(1) == 0
    with pytest.raises(ValueError):
        r.randbelow(0)


def test_detrng_randbelow_stays_in_range():
    r = DetRng(77)
    for bound in (2, 3, 10, 255, 256, 1000003):
        for _ in range(50):
            assert 0 <= r.randbelow(bound) < bound


# ---------------------------------------------------------------------------
# Keys and addresses
# ---------------------------------------------------------------------------

def test_keypair_from_in_range_seed_uses_seed_directly():
    kp = generate_keypair((42).to_bytes(32, "big"))
    assert kp.private_key == 42
    assert kp.public_key == crypto.scalar_base_mult(42)


def test_keypair_out_of_range_seeds_rehash():
    for seed in (b"\x00" * 32, b"\xff" * 32, N.to_bytes(32, "big")):
        kp = generate_keypair(seed)
        assert 1 <= kp.private_key < N
        # OpenSSL refuses to build a public key from a point off the curve
        x, y = kp.public_key
        ec.EllipticCurvePublicNumbers(x, y, ec.SECP256K1()).public_key()


def test_keypair_seed_length_enforced():
    with pytest.raises(CryptoError):
        generate_keypair(b"short")


def test_pub_bytes_matches_openssl_encoding():
    for k in (1, 2, 42, N - 1, 0x1234567890ABCDEF):
        mine = generate_keypair(k.to_bytes(32, "big")).pub_bytes
        theirs = _openssl_priv(k).public_key().public_bytes(
            serialization.Encoding.X962,
            serialization.PublicFormat.CompressedPoint)
        assert mine == theirs


def test_address_is_truncated_pubkey_digest():
    kp = generate_keypair(DetRng(3).take(32))
    assert kp.address == sha256(kp.pub_bytes)[:20]
    assert len(kp.address) == 20


def test_resource_address_stable_and_distinct():
    assert resource_address("vm-large") == resource_address("vm-large")
    assert resource_address("vm-large") != resource_address("vm-small")
    assert len(resource_address("x")) == 20


def test_compress_decompress_round_trip():
    rng = DetRng(8, b"pts")
    for _ in range(20):
        kp = generate_keypair(rng.take(32))
        assert decompress_point(kp.pub_bytes) == kp.public_key


def test_decompress_rejects_malformed():
    assert decompress_point(b"\x02" + b"\x00" * 31) is None      # short
    assert decompress_point(b"\x05" + b"\x00" * 32) is None      # prefix
    assert decompress_point(b"\x02" + P.to_bytes(32, "big")) is None
    # x whose x^3 + 7 is a quadratic non-residue
    x = next(x for x in range(2, 200)
             if pow(pow(x, 3, P) + 7,
                    (P + 1) // 4, P) ** 2 % P != (pow(x, 3, P) + 7) % P)
    assert decompress_point(b"\x02" + x.to_bytes(32, "big")) is None


def test_child_key_derivation():
    parent = generate_keypair(DetRng(11).take(32))
    c0 = derive_child_key(parent, 0)
    c1 = derive_child_key(parent, 1)
    assert c0 != c1
    assert derive_child_key(parent, 0) == c0
    expected = (parent.private_key + int.from_bytes(
        sha256(parent.pub_bytes + (0).to_bytes(4, "big")), "big")) % N
    assert c0.private_key == expected
    assert c0.public_key == crypto.scalar_base_mult(c0.private_key)


# ---------------------------------------------------------------------------
# Curve kernel
# ---------------------------------------------------------------------------

EDGE_SCALARS = [1, 2, 3, 7, 2**64, 2**128, 2**255,
                N - 2, N - 1, N + 1, N + 2**130]


def _random_scalars(count, label):
    rng = DetRng(90210, label)
    return [rng.randbelow(N - 1) + 1 for _ in range(count)]


def _openssl_point(k: int) -> tuple[int, int]:
    nums = _openssl_priv(k % N).public_key().public_numbers()
    return nums.x, nums.y


def test_base_mult_matches_openssl():
    for k in EDGE_SCALARS + _random_scalars(16, b"base"):
        assert _ecbackend.scalar_base_mult(k) == _openssl_point(k), k


def test_zero_and_order_scalars_hit_infinity():
    for k in (0, N):
        assert _ecbackend.scalar_base_mult(k) is None
        assert _ecbackend.scalar_mult(k, GX, GY) is None


def test_scalar_mult_of_generator_equals_base_mult():
    for k in EDGE_SCALARS + _random_scalars(8, b"point"):
        assert (_ecbackend.scalar_mult(k, GX, GY)
                == _ecbackend.scalar_base_mult(k))


def test_shamir_equals_combined_scalar():
    # u1*G + u2*(q*G) == (u1 + u2*q)*G
    rng = DetRng(31337, b"shamir")
    for _ in range(8):
        u1, u2 = rng.randbelow(N), rng.randbelow(N)
        q = rng.randbelow(N - 1) + 1
        qx, qy = _ecbackend.scalar_base_mult(q)
        assert (_ecbackend.shamir_mult(u1, u2, qx, qy)
                == _ecbackend.scalar_base_mult((u1 + u2 * q) % N))


def test_shamir_degenerate_sum():
    # u1*G + u2*Q where Q = -G and u1 == u2: every double-add cancels
    assert _ecbackend.shamir_mult(5, 5, GX, P - GY) is None
    assert _ecbackend.shamir_mult(0, 0, GX, P - GY) is None


LAMBDA = _ecbackend._LAMBDA
# scalars at the seams of the GLV split: the eigenvalue itself, its
# neighbours and its negation, and powers of two around the 128-bit halves
GLV_SCALARS = [0, 1, 2, N - 1, LAMBDA, LAMBDA - 1, LAMBDA + 1, N - LAMBDA,
               2**127, 2**128 - 1, 2**128, 2**128 + 1, 2**129, N // 2]


def _openssl_or_none(k: int):
    return None if k % N == 0 else _openssl_point(k)


SPACING = _ecbackend._COMB_SPACING
TEETH = _ecbackend._COMB_TEETH


def _comb_scalar(b: int) -> int:
    """The multiple of its base that comb table entry b holds."""
    return sum(1 << (SPACING * j) for j in range(b.bit_length()) if b >> j & 1)


def _check_table(table, q):
    """Entry b of the comb table of q*G is _comb_scalar(b)*q*G, and its
    LAMBDA image (BETA * x, y), which the walk adds, is that times LAMBDA."""
    assert len(table) == 2**TEETH and table[0] is None
    for b in range(1, 2**TEETH):
        x, y = table[b]
        assert (x, y) == _openssl_point(_comb_scalar(b) * q), b
        assert (((_ecbackend._BETA * x) % P, y)
                == _openssl_point(_comb_scalar(b) * q * LAMBDA)), b


def test_g_comb_table_matches_openssl():
    _check_table(_ecbackend._G_TABLE, 1)


def test_point_tables_match_openssl():
    q = _random_scalars(1, b"table-q")[0]
    _check_table(_ecbackend._point_table(*_openssl_point(q)), q)


def _jacobian_comb_reference(base):
    """The comb table built the plain way: every entry a Jacobian sum of
    its teeth, each converted to affine on its own."""
    teeth = [(base[0], base[1], 1)]
    for _ in range(TEETH - 1):
        pt = teeth[-1]
        for _ in range(SPACING):
            pt = _ecbackend._jac_double(pt)
        teeth.append(pt)
    entries = []
    for tooth in teeth:
        tx, ty = _ecbackend._to_affine(tooth)
        entries += [tooth] + [_ecbackend._jac_add_affine(e, tx, ty)
                              for e in entries]
    return [None] + [_ecbackend._to_affine(e) for e in entries]


def test_affine_table_build_equals_jacobian_reference():
    for q in [1] + _random_scalars(2, b"affine-build-q"):
        base = _openssl_point(q)
        assert _ecbackend._comb_points(base) == _jacobian_comb_reference(base)


def test_glv_endomorphism_and_split():
    # lambda * (x, y) == (beta * x, y), checked on G against OpenSSL
    assert _openssl_point(LAMBDA) == ((_ecbackend._BETA * GX) % P, GY)
    for k in GLV_SCALARS + _random_scalars(32, b"glv"):
        k1, k2 = _ecbackend._glv_split(k)
        assert (k1 + k2 * LAMBDA - k) % N == 0, k
        assert abs(k1) < 2**129 and abs(k2) < 2**129, k


# scalars at the seams of 17-bit chunks across the group, and its top
COMB_SEAMS = [0, 1, N - 1] + [(1 << SPACING * j) + d
                              for j in range(1, 16) for d in (-1, 0)]
# the comb's tooth seams, up to the top of its 2**136 reach
TOOTH_SEAMS = [2**17, 2**34 - 1, 2**51, 2**68 - 1, 2**85, 2**102 - 1,
               2**119, 2**136 - 1]
# multipliers of B and LAMBDA*B on those seams, with each sign pair
HALF_SEAMS = [(s1 * a, s2 * b)
              for a in [1] + TOOTH_SEAMS[1::2]
              for b in TOOTH_SEAMS[0::2] + [2**136 - 1]
              for s1 in (1, -1) for s2 in (1, -1)]


def test_comb_seams_match_openssl():
    q = _random_scalars(1, b"comb-seam-q")[0]
    qx, qy = _openssl_point(q)
    tables = ((_ecbackend._G_TABLE, 1), (_ecbackend._point_table(qx, qy), q))
    halves = []
    for k1, k2 in HALF_SEAMS:
        k = (k1 + k2 * LAMBDA) % N
        for table, base in tables:
            walk = _ecbackend._comb_walk(((table, k1, False),
                                          (table, k2, True)))
            assert (_ecbackend._to_affine(walk)
                    == _openssl_or_none(k * base)), (k1, k2, base)
        # halves the GLV split can produce reach the public functions
        if abs(k1) < 2**129 and abs(k2) < 2**129:
            assert _ecbackend._glv_split(k) == (k1, k2)
            halves.append(k)
    for k in COMB_SEAMS + halves:
        assert _ecbackend.scalar_base_mult(k) == _openssl_or_none(k), k
        assert _ecbackend.scalar_mult(k, qx, qy) == _openssl_or_none(k * q), k
        for u in (0, 1, 2**231):
            assert (_ecbackend.shamir_mult(k, u, qx, qy)
                    == _openssl_or_none(k + u * q)), (k, u)
            assert (_ecbackend.shamir_mult(u, k, qx, qy)
                    == _openssl_or_none(u + k * q)), (u, k)


def test_point_tables_cold_and_warm_agree_and_build_once():
    q = _random_scalars(1, b"cache-q")[0]
    qx, qy = _openssl_point(q)
    ks = _random_scalars(6, b"cache-k")
    cold = []
    for k in ks:
        _ecbackend._point_table.cache_clear()
        cold.append((_ecbackend.scalar_mult(k, qx, qy),
                     _ecbackend.shamir_mult(k, k + 1, qx, qy)))
    _ecbackend._point_table.cache_clear()
    warm = [(_ecbackend.scalar_mult(k, qx, qy),
             _ecbackend.shamir_mult(k, k + 1, qx, qy)) for k in ks]
    assert cold == warm
    assert warm[0] == (_openssl_point(ks[0] * q),
                       _openssl_point(ks[0] + (ks[0] + 1) * q))
    info = _ecbackend._point_table.cache_info()
    assert (info.misses, info.hits) == (1, 2 * len(ks) - 1)


def test_kernel_point_op_counts(monkeypatch):
    # An exact count, not a clock: one warm call of each public function
    # costs at most 17 doublings and 34 / 34 / 68 mixed additions.
    q = _random_scalars(1, b"count-q")[0]
    qx, qy = _openssl_point(q)
    u1, u2 = _random_scalars(2, b"count-u")
    ops = {"scalar_base_mult": ((u1,), 34),
           "scalar_mult": ((u2, qx, qy), 34),
           "shamir_mult": ((u1, u2, qx, qy), 68)}
    # warm the tables and keep each result
    expected = {name: getattr(_ecbackend, name)(*args)
                for name, (args, _) in ops.items()}
    calls = {}
    for fn in ("_jac_double", "_jac_add_affine"):
        def counted(*args, _name=fn, _fn=getattr(_ecbackend, fn)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(_ecbackend, fn, counted)
    for name, (args, max_adds) in ops.items():
        calls.update(_jac_double=0, _jac_add_affine=0)
        assert getattr(_ecbackend, name)(*args) == expected[name], name
        assert 0 < calls["_jac_double"] <= 17, (name, calls)
        assert 0 < calls["_jac_add_affine"] <= max_adds, (name, calls)


def test_batch_inversion_matches_single_inversions():
    jac, pt = [], (GX, GY, 1)
    for _ in range(12):
        pt = _ecbackend._jac_add_affine(_ecbackend._jac_double(pt), GX, GY)
        jac.append(pt)
    assert (_ecbackend._batch_to_affine(jac)
            == [_ecbackend._to_affine(p) for p in jac])
    assert _ecbackend._batch_to_affine(jac[:1]) == [_ecbackend._to_affine(jac[0])]


def test_scalar_mult_on_glv_seams_matches_openssl():
    q = _random_scalars(1, b"seam-q")[0]
    qx, qy = _openssl_point(q)
    for k in GLV_SCALARS:
        assert _ecbackend.scalar_mult(k, qx, qy) == _openssl_or_none(k * q), k
        assert _ecbackend.scalar_base_mult(k) == _openssl_or_none(k), k


def test_shamir_cancellation_and_doubling_cases():
    q = _random_scalars(1, b"shamir-q")[0]
    qx, qy = _openssl_point(q)
    for u in GLV_SCALARS[1:] + _random_scalars(4, b"shamir-u"):
        v = _random_scalars(1, u.to_bytes(32, "big"))[0]
        cases = [
            ((u, v, GX, GY), u + v),                  # Q == G
            ((u, v, GX, P - GY), u - v),              # Q == -G
            ((v * q, v, qx, qy), 2 * v * q),          # u1*G == u2*Q
            ((-v * q, v, qx, qy), 0),                 # u1*G == -u2*Q
            ((0, u, qx, qy), u * q),
            ((u, 0, qx, qy), u),
        ]
        for args, k in cases:
            assert _ecbackend.shamir_mult(*args) == _openssl_or_none(k), args
    # u1*G and u2*Q meet as equal points (a doubling) or as opposite ones
    # (infinity)
    for k in (1, 7, 15 * 16**63):
        assert _ecbackend.shamir_mult(k, k, GX, GY) == _openssl_point(2 * k)
        assert _ecbackend.shamir_mult(k, k, GX, P - GY) is None


def test_crypto_reaches_kernel_through_module_globals(monkeypatch):
    # Layer tracing wraps the kernel functions wherever a ctsim module binds
    # them, so crypto must call them through its own globals.
    assert _ecbackend.BACKEND == "pure"
    kernel = ("scalar_base_mult", "scalar_mult", "shamir_mult")
    calls = dict.fromkeys(kernel, 0)
    for name in kernel:
        original = getattr(_ecbackend, name)
        assert getattr(crypto, name) is original

        def counted(*args, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(crypto, name, counted)

    def delta(fn, *args):
        before = dict(calls)
        out = fn(*args)
        return out, {k: calls[k] - before[k] for k in kernel}

    kp = generate_keypair(DetRng(61).take(32))
    digest = sha256(b"kernel reach")
    sig, used = delta(sign, kp, digest)
    assert used == {"scalar_base_mult": 1, "scalar_mult": 0, "shamir_mult": 0}
    crypto._verify_memo.clear()  # verify memoizes; count a miss
    ok, used = delta(verify, kp.pub_bytes, digest, sig)
    assert ok and used == {"scalar_base_mult": 0, "scalar_mult": 0,
                           "shamir_mult": 1}
    # a triple verify_many checked is memoized for verify
    crypto._verify_memo.clear()
    monkeypatch.setattr(crypto, "_MIN_SHARE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    other = sha256(b"kernel miss")
    triples = [(kp.pub_bytes, digest, sig), (kp.pub_bytes, other, sig)]
    _, used = delta(crypto.verify_many, triples)
    assert used["shamir_mult"] == 1  # the parent's share; the other forked
    ok, used = delta(verify, kp.pub_bytes, digest, sig)
    assert ok and used == dict.fromkeys(kernel, 0)
    ok, used = delta(verify, kp.pub_bytes, other, sig)
    assert not ok and used == dict.fromkeys(kernel, 0)
    ct, used = delta(encrypt_for, kp.pub_bytes, b"profile", DetRng(62))
    assert used == {"scalar_base_mult": 1, "scalar_mult": 1, "shamir_mult": 0}
    plain, used = delta(decrypt, kp.private_key, ct)
    assert plain == b"profile"
    assert used == {"scalar_base_mult": 0, "scalar_mult": 1, "shamir_mult": 0}


# ---------------------------------------------------------------------------
# ECDSA
# ---------------------------------------------------------------------------

def test_sign_is_deterministic_and_low_s():
    kp = generate_keypair(DetRng(21).take(32))
    digest = sha256(b"payload")
    sig = sign(kp, digest)
    assert sig == sign(kp, digest)
    assert len(sig) == 64
    s = int.from_bytes(sig[32:], "big")
    assert 1 <= s <= N // 2
    assert verify(kp.pub_bytes, digest, sig)


def test_our_signatures_verify_under_openssl():
    rng = DetRng(31, b"xsig")
    for _ in range(8):
        k = rng.randbelow(N - 1) + 1
        kp = generate_keypair(k.to_bytes(32, "big"))
        digest = sha256(rng.take(40))
        sig = sign(kp, digest)
        r = int.from_bytes(sig[:32], "big")
        s = int.from_bytes(sig[32:], "big")
        _openssl_pub(kp.pub_bytes).verify(
            encode_dss_signature(r, s), digest, _PREHASHED)  # raises if bad


def test_openssl_signatures_verify_here_after_low_s():
    rng = DetRng(32, b"osig")
    for _ in range(8):
        k = rng.randbelow(N - 1) + 1
        priv = _openssl_priv(k)
        pub_bytes = generate_keypair(k.to_bytes(32, "big")).pub_bytes
        digest = sha256(rng.take(33))
        r, s = decode_dss_signature(priv.sign(digest, _PREHASHED))
        if s > N // 2:
            s = N - s
        sig = r.to_bytes(32, "big") + s.to_bytes(32, "big")
        assert verify(pub_bytes, digest, sig)


def test_sign_equals_openssl_rfc6979_after_low_s():
    # an independent oracle for the signature bytes: OpenSSL's RFC 6979
    # deterministic ECDSA, then low s, over random keys and the digests
    # that stress the nonce's bits2octets reduction
    try:
        rfc6979 = ec.ECDSA(Prehashed(hashes.SHA256()),
                           deterministic_signing=True)
    except TypeError:
        pytest.skip("this cryptography has no deterministic_signing")
    rng = DetRng(36, b"rfc6979")
    edges = [0, N, 2 ** 256 - 1]
    for _ in range(40):
        k = rng.randbelow(N - 1) + 1
        kp = generate_keypair(k.to_bytes(32, "big"))
        priv = _openssl_priv(k)
        for digest in [d.to_bytes(32, "big") for d in edges] + [rng.take(32)]:
            r, s = decode_dss_signature(priv.sign(digest, rfc6979))
            s = min(s, N - s)
            assert sign(kp, digest) == (r.to_bytes(32, "big")
                                        + s.to_bytes(32, "big"))


def test_high_s_form_is_rejected():
    kp = generate_keypair(DetRng(33).take(32))
    digest = sha256(b"malleation")
    sig = sign(kp, digest)
    r = sig[:32]
    s = int.from_bytes(sig[32:], "big")
    high = r + (N - s).to_bytes(32, "big")
    # still a valid curve equation solution, so OpenSSL accepts it...
    _openssl_pub(kp.pub_bytes).verify(
        encode_dss_signature(int.from_bytes(r, "big"), N - s),
        digest, _PREHASHED)
    # ...but the ledger's stricter rule does not
    assert not verify(kp.pub_bytes, digest, high)


def test_verify_rejects_garbage():
    kp = generate_keypair(DetRng(34).take(32))
    other = generate_keypair(DetRng(35).take(32))
    digest = sha256(b"msg")
    sig = sign(kp, digest)
    assert not verify(other.pub_bytes, digest, sig)
    assert not verify(kp.pub_bytes, sha256(b"other"), sig)
    assert not verify(kp.pub_bytes, digest, sig[:-1])
    assert not verify(kp.pub_bytes, digest[:-1], sig)
    assert not verify(kp.pub_bytes, digest, b"\x00" * 64)
    assert not verify(b"\x09" * 33, digest, sig)
    flipped = bytes([sig[0] ^ 1]) + sig[1:]
    assert not verify(kp.pub_bytes, digest, flipped)
    # an unhashable argument cannot be memoized, and is no signature
    assert verify(bytearray(kp.pub_bytes), digest, sig) is False


def test_memo_and_own_record_evict_the_oldest_at_their_cap(monkeypatch):
    monkeypatch.setattr(crypto, "_VERIFY_MEMO_MAX", 2)
    monkeypatch.setattr(crypto, "_verify_memo", {})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    checks = []
    real_check = crypto._verify_uncached

    def counted(*triple):
        checks.append(triple)
        return real_check(*triple)
    monkeypatch.setattr(crypto, "_verify_uncached", counted)
    kp = generate_keypair(DetRng(37).take(32))
    digests = [sha256(bytes([i])) for i in range(3)]
    triples = [(kp.pub_bytes, d, sign(kp, d)) for d in digests]
    assert all(verify(*t) for t in triples)
    assert list(crypto._verify_memo) == triples[1:]
    assert verify(*triples[0]) and checks == triples + triples[:1]

    checks.clear()
    crypto._verify_memo.clear()
    with crypto.defer_own_checks():
        assert [sign(kp, d) for d in digests] == [t[2] for t in triples]
        assert list(crypto._own.made) == triples[1:]
        # evicted from the record, so checked at once; the others are owed
        assert all(verify(*t) for t in triples)
        assert checks == triples[:1]
    assert checks == triples


def test_only_own_signatures_are_owed_and_each_must_be_valid(monkeypatch):
    monkeypatch.setattr(crypto, "_verify_memo", {})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    checks = []
    real_check = crypto._verify_uncached

    def counted(*triple):
        checks.append(triple)
        return real_check(*triple)
    monkeypatch.setattr(crypto, "_verify_uncached", counted)
    kp = generate_keypair(DetRng(38).take(32))
    digest = sha256(b"corrupted")
    with crypto.defer_own_checks():
        sig = sign(kp, digest)
        valid = (kp.pub_bytes, digest, sig)
        flipped = (kp.pub_bytes, digest, sig[:-1] + bytes([sig[-1] ^ 1]))
        # a flipped copy of a signature made here is checked at once
        assert not verify(*flipped) and checks == [flipped]
        assert verify(*valid) and checks == [flipped]   # assumed, owed
        assert crypto._own.owed == [valid]
    assert checks == [flipped, valid]
    assert crypto._verify_memo == {flipped: False, valid: True}

    # a triple recorded as made here that does not verify, as a faulty
    # sign() would make: its owed check fails the block, and the verdict
    # assumed for it leaves the memo
    checks.clear()
    crypto._verify_memo.clear()
    with pytest.raises(CryptoError):
        with crypto.defer_own_checks():
            crypto._own.record(flipped)
            assert verify(*flipped) and not checks
    assert checks == [flipped]
    assert not crypto._verify_memo and crypto._own is None
    assert not verify(*flipped)


def test_sign_requires_digest_length():
    kp = generate_keypair(DetRng(36).take(32))
    with pytest.raises(CryptoError):
        sign(kp, b"not a digest")


# ---------------------------------------------------------------------------
# SHA-256 and HMAC-SHA256
# ---------------------------------------------------------------------------

def test_sha256_equals_hashlib_on_every_length():
    # 0-300 bytes crosses the 55/56-byte padding edge and the 64-byte block
    # several times over
    data = DetRng(41, b"sha256").take(300)
    for n in range(301):
        assert sha256(data[:n]) == hashlib.sha256(data[:n]).digest(), n


# RFC 4231 test cases 1-4, as (key, data, HMAC-SHA-256)
RFC4231 = [
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
]


@pytest.mark.parametrize("key, data, mac", RFC4231,
                         ids=[f"case-{i}" for i in range(1, 5)])
def test_hmac_matches_rfc4231(key, data, mac):
    assert crypto._hmac(key, data).hex() == mac


def test_hmac_equals_stdlib_hmac_for_every_key_length():
    rng = DetRng(42, b"hmac")
    for klen in range(65):
        key = rng.take(klen)
        for mlen in (0, 1, 32, 55, 56, 64, 65, 97, 200):
            msg = rng.take(mlen)
            assert crypto._hmac(key, msg) \
                == hmac.new(key, msg, "sha256").digest(), (klen, mlen)


def test_hmac_refuses_a_key_longer_than_a_block():
    with pytest.raises(ValueError):
        crypto._hmac(bytes(65), b"")


# ---------------------------------------------------------------------------
# AES-256-GCM
# ---------------------------------------------------------------------------

def test_aes256_block_matches_fips197_c3():
    rk = _aesgcm._expand_key(bytes(range(32)))
    block = bytes.fromhex("00112233445566778899aabbccddeeff")
    words = [int.from_bytes(block[i:i + 4], "big") for i in range(0, 16, 4)]
    assert _aesgcm._encrypt(rk, *words).to_bytes(16, "big").hex() \
        == "8ea2b7ca516745bfeafc49904b496089"


def test_seal_matches_gcm_test_cases_13_and_14():
    # McGrew and Viega's GCM test vectors: a zero key and nonce, with an
    # empty plaintext and then one zero block
    assert _aesgcm.seal(bytes(32), bytes(12), b"", b"").hex() \
        == "530f8afbc74536b9a963b4f1c4cb738b"
    assert _aesgcm.seal(bytes(32), bytes(12), bytes(16), b"").hex() \
        == ("cea7403d4d606b6e074ec5d3baf39d18"
            "d0d1c8a799996bf0265b98b5d48ab919")


def test_seal_equals_openssl_on_every_length():
    # plaintexts of 0-80 bytes cover no block, whole blocks and partial
    # ones; the AAD likewise, at 0-40 bytes
    rng = DetRng(57, b"aesgcm")
    for size in range(81):
        for aad_size in range(41):
            key, nonce = rng.take(32), rng.take(12)
            plaintext, aad = rng.take(size), rng.take(aad_size)
            assert _aesgcm.seal(key, nonce, plaintext, aad) \
                == AESGCM(key).encrypt(nonce, plaintext, aad), (size, aad_size)


@pytest.mark.parametrize("key, nonce", [(bytes(16), bytes(12)),
                                        (bytes(32), bytes(16))],
                         ids=["aes128-key", "long-nonce"])
def test_seal_refuses_other_key_and_nonce_sizes(key, nonce):
    with pytest.raises(ValueError, match="32-byte key and a 12-byte nonce"):
        _aesgcm.seal(key, nonce, b"profile", b"")


# ---------------------------------------------------------------------------
# ECDH / ECIES
# ---------------------------------------------------------------------------

def test_ecdh_agrees_with_openssl():
    rng = DetRng(41, b"ecdh")
    for _ in range(6):
        a = rng.randbelow(N - 1) + 1
        b = rng.randbelow(N - 1) + 1
        kb = generate_keypair(b.to_bytes(32, "big"))
        shared = _openssl_priv(a).exchange(
            ec.ECDH(), _openssl_pub(kb.pub_bytes))
        ours = crypto.scalar_mult(a, *kb.public_key)
        assert shared == ours[0].to_bytes(32, "big")


def test_ecies_round_trip_and_determinism():
    # sealed by ctsim._aesgcm, opened by OpenSSL
    recipient = generate_keypair(DetRng(51).take(32))
    msg = b'{"user": "wanderer", "home": "asgard"}'
    ct1 = encrypt_for(recipient.pub_bytes, msg, DetRng(52, b"e"))
    ct2 = encrypt_for(recipient.pub_bytes, msg, DetRng(52, b"e"))
    assert ct1 == ct2               # same rng stream, same bytes
    assert decrypt(recipient.private_key, ct1) == msg


def test_ecies_tamper_detection():
    recipient = generate_keypair(DetRng(53).take(32))
    ct = encrypt_for(recipient.pub_bytes, b"secret profile", DetRng(54))
    mutations = [
        ct.__class__(ct.ephemeral_pub, ct.nonce,
                     bytes([ct.body[0] ^ 1]) + ct.body[1:], ct.tag),
        ct.__class__(ct.ephemeral_pub, ct.nonce, ct.body,
                     bytes([ct.tag[0] ^ 1]) + ct.tag[1:]),
        ct.__class__(ct.ephemeral_pub,
                     bytes([ct.nonce[0] ^ 1]) + ct.nonce[1:],
                     ct.body, ct.tag),
    ]
    for bad in mutations:
        with pytest.raises(DecryptError):
            decrypt(recipient.private_key, bad)
    wrong_key = generate_keypair(DetRng(55).take(32))
    with pytest.raises(DecryptError):
        decrypt(wrong_key.private_key, ct)


def test_ecies_rejects_bad_recipient_key():
    with pytest.raises(CryptoError):
        encrypt_for(b"\x07" * 33, b"data", DetRng(56))


def test_shared_key_refuses_a_degenerate_ecdh():
    with pytest.raises(CryptoError, match="degenerate ECDH"):
        crypto._shared_key(0, (GX, GY))


# ---------------------------------------------------------------------------
# CPUs a fan-out may use
# ---------------------------------------------------------------------------

def test_cpus_is_one_without_affinity_or_beside_another_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert crypto._cpus() == 2
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert crypto._cpus() == 1
    finally:
        release.set()
        other.join()
    assert crypto._cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert crypto._cpus() == 1


def test_openssl_rejects_forged_signature():
    # sanity on the oracle itself: a flipped digest must fail there too
    kp = generate_keypair(DetRng(57).take(32))
    digest = sha256(b"real")
    sig = sign(kp, digest)
    r = int.from_bytes(sig[:32], "big")
    s = int.from_bytes(sig[32:], "big")
    with pytest.raises(InvalidSignature):
        _openssl_pub(kp.pub_bytes).verify(
            encode_dss_signature(r, s), sha256(b"fake"), _PREHASHED)
