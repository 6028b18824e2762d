"""Pure-Python AES-256-GCM sealing: the one cipher kernel.

Enc(U), the user profile a TOKEN carries, is sealed here, encrypt only:
``seal(key, nonce, plaintext, aad)`` returns the ciphertext followed by
its 16-byte tag, byte for byte what any AES-256-GCM with a 96-bit nonce
returns.

AES-256 (FIPS-197) runs each block as four big-endian 32-bit column
words. A full round is one lookup per byte in the T-tables: ``_T0[x]``
folds SubBytes and MixColumns for the byte in a column's top row, and
``_T1``..``_T3`` are its byte rotations for the rows below, with
ShiftRows folded into which word each byte is read from. The tables are
built at import from the S-box; the last round, which has no
MixColumns, reads the S-box itself.

GCM (NIST SP 800-38D) encrypts with counter blocks from nonce || 2 and
masks the GHASH of the AAD and the ciphertext with the encryption of
nonce || 1. A GHASH block is a 128-bit integer whose most significant
bit is the coefficient of x^0, so a multiplication by x is a right shift
by one. Multiplying by H follows Shoup's 4-bit method: a per-key table
of the 16 multiples of H by a nibble, and a fixed 16-entry table that
reduces a shift by four bits.

References: NIST FIPS 197, "Advanced Encryption Standard", 2001;
J. Daemen and V. Rijmen, *The Design of Rijndael*, Springer 2002,
section 4.2 (the table lookup implementation); NIST SP 800-38D,
"Galois/Counter Mode (GCM) and GMAC", 2007; V. Shoup, "On fast and
provably secure message authentication based on universal hashing",
CRYPTO 1996.
"""

__all__ = ["seal"]

_SBOX = bytes.fromhex(
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16")

# column (2s, s, s, 3s) for s = S[x], then the same rotated a byte right
_T0 = [(s << 1 ^ (0x11B if s & 0x80 else 0)) * 0x01000001 ^ s * 0x00010101
       for s in _SBOX]
_T1 = [w >> 8 | (w & 0xFF) << 24 for w in _T0]
_T2 = [w >> 8 | (w & 0xFF) << 24 for w in _T1]
_T3 = [w >> 8 | (w & 0xFF) << 24 for w in _T2]

_ROUNDS = 14

# x^128 = x^7 + x^2 + x + 1, in GHASH's bit order
_R = 0xE1 << 120


def _times_x(v: int) -> int:
    return v >> 1 ^ (_R if v & 1 else 0)


# v * x^4 for a v held in the low four bits, the coefficients of
# x^124..x^127; so for any v, v * x^4 == v >> 4 ^ _REDUCE[v & 15]
_REDUCE = [_times_x(_times_x(_times_x(_times_x(v)))) for v in range(16)]


def _sub_word(w: int) -> int:
    s = _SBOX
    return (s[w >> 24] << 24 | s[w >> 16 & 0xFF] << 16
            | s[w >> 8 & 0xFF] << 8 | s[w & 0xFF])


def _expand_key(key: bytes) -> list[int]:
    """The 60 round-key words of a 32-byte key."""
    w = [int.from_bytes(key[i:i + 4], "big") for i in range(0, 32, 4)]
    rcon = 1
    for i in range(8, 4 * (_ROUNDS + 1)):
        t = w[i - 1]
        if i % 8 == 0:
            t = _sub_word((t << 8 | t >> 24) & 0xFFFFFFFF) ^ rcon << 24
            rcon <<= 1
        elif i % 8 == 4:
            t = _sub_word(t)
        w.append(w[i - 8] ^ t)
    return w


def _encrypt(rk: list[int], s0: int, s1: int, s2: int, s3: int) -> int:
    """One block, given as four column words, encrypted to a 128-bit int."""
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    s0 ^= rk[0]
    s1 ^= rk[1]
    s2 ^= rk[2]
    s3 ^= rk[3]
    for r in range(4, 4 * _ROUNDS, 4):
        s0, s1, s2, s3 = (
            t0[s0 >> 24] ^ t1[s1 >> 16 & 0xFF] ^ t2[s2 >> 8 & 0xFF]
            ^ t3[s3 & 0xFF] ^ rk[r],
            t0[s1 >> 24] ^ t1[s2 >> 16 & 0xFF] ^ t2[s3 >> 8 & 0xFF]
            ^ t3[s0 & 0xFF] ^ rk[r + 1],
            t0[s2 >> 24] ^ t1[s3 >> 16 & 0xFF] ^ t2[s0 >> 8 & 0xFF]
            ^ t3[s1 & 0xFF] ^ rk[r + 2],
            t0[s3 >> 24] ^ t1[s0 >> 16 & 0xFF] ^ t2[s1 >> 8 & 0xFF]
            ^ t3[s2 & 0xFF] ^ rk[r + 3])
    s = _SBOX
    out = 0
    for a, b, c, d, k in ((s0, s1, s2, s3, rk[-4]), (s1, s2, s3, s0, rk[-3]),
                          (s2, s3, s0, s1, rk[-2]), (s3, s0, s1, s2, rk[-1])):
        out = out << 32 | (s[a >> 24] << 24 | s[b >> 16 & 0xFF] << 16
                           | s[c >> 8 & 0xFF] << 8 | s[d & 0xFF]) ^ k
    return out


def _ghash(h: int, data: bytes) -> int:
    """GHASH under h of data, whose length is a multiple of 16."""
    # m[v] = v * h for a nibble v whose high bit is the coefficient of x^0
    m = [0] * 16
    for bit in (8, 4, 2, 1):
        m[bit] = h
        h = _times_x(h)
    for high in (2, 4, 8):
        for low in range(1, high):
            m[high | low] = m[high] ^ m[low]
    reduce = _REDUCE
    y = 0
    for i in range(0, len(data), 16):
        y ^= int.from_bytes(data[i:i + 16], "big")
        # Horner over the 32 nibbles, the highest powers of x first
        z = 0
        for shift in range(0, 128, 4):
            z = z >> 4 ^ reduce[z & 15] ^ m[y >> shift & 15]
        y = z
    return y


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
    """AES-256-GCM encryption: the ciphertext, then the 16-byte tag."""
    if len(key) != 32 or len(nonce) != 12:
        raise ValueError("seal takes a 32-byte key and a 12-byte nonce")
    rk = _expand_key(key)
    n0, n1, n2 = (int.from_bytes(nonce[i:i + 4], "big") for i in (0, 4, 8))
    size = len(plaintext)
    stream = b"".join(_encrypt(rk, n0, n1, n2, ctr).to_bytes(16, "big")
                      for ctr in range(2, (size + 15) // 16 + 2))
    body = (int.from_bytes(plaintext, "big")
            ^ int.from_bytes(stream[:size], "big")).to_bytes(size, "big")
    lengths = (len(aad) * 8).to_bytes(8, "big") + (size * 8).to_bytes(8, "big")
    tag = _ghash(_encrypt(rk, 0, 0, 0, 0),
                 aad + bytes(-len(aad) % 16) + body + bytes(-size % 16)
                 + lengths) ^ _encrypt(rk, n0, n1, n2, 1)
    return body + tag.to_bytes(16, "big")
