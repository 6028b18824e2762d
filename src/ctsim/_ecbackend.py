"""Pure-Python secp256k1 point arithmetic: the one curve kernel.

Points cross the API boundary as affine ``(x, y)`` integer pairs; the point
at infinity is ``None``. Internally points are Jacobian ``(X, Y, Z)``, every
addition adds an affine point (mixed addition), and a result costs one field
inversion, ``pow(z, -1, P)``. ``BACKEND`` names the kernel so benchmarks can
record which one they measured.

Algorithms:

- ``scalar_base_mult`` reads k in 4-bit windows from a fixed-base comb table
  of ``d * 16**i * G`` (1 <= d <= 15, i < 64). The table is built once at
  import and normalized to affine with Montgomery's batch inversion, so a
  base multiplication is at most 64 mixed additions and no doublings.
- ``scalar_mult`` splits k with the GLV endomorphism
  ``LAMBDA * (x, y) == (BETA * x, y)`` into two halves of about 128 bits and
  runs one interleaved width-5 wNAF ladder over the batch-normalized odd
  multiples of Q and LAMBDA * Q: about 128 doublings instead of 256.
- ``shamir_mult`` runs that ladder for ``u2 * Q`` and adds ``u1 * G`` from
  the comb table.

References: D. Hankerson, A. Menezes and S. Vanstone, *Guide to Elliptic
Curve Cryptography*, Springer 2004, section 3.3 (wNAF, fixed-base comb,
interleaving) and section 3.5 (balanced length-two scalar decomposition);
R. Gallant, R. Lambert and S. Vanstone, "Faster point multiplication on
elliptic curves with efficient endomorphisms", CRYPTO 2001.

The three public functions never call one another, so each call of one of
them is one unit of kernel work to anything that wraps them.
"""

BACKEND = "pure"

# Curve: y^2 = x^3 + 7 over GF(P), group order N, base point G.
P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# GLV endomorphism: a cube root of unity in each field, paired so that
# LAMBDA * (x, y) == (BETA * x, y) for every point on the curve.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
# Short basis (A1, B1), (A2, B2) of the lattice {(a, b): a + b*LAMBDA == 0
# mod N}; rounding k against it leaves two halves below 2**129.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1

_WNAF_WIDTH = 5   # variable-base digits are odd, |d| < 2**(_WNAF_WIDTH - 1)
_COMB_BITS = 4    # fixed-base window: comb rows hold d * 2**(4*i) * G
_COMB_ROW = 1 << _COMB_BITS

_INF = (0, 1, 0)  # Jacobian encoding of the point at infinity (z == 0)


def _jac_double(pt):
    x1, y1, z1 = pt
    if z1 == 0 or y1 == 0:
        return _INF
    y2 = (y1 * y1) % P
    s = (4 * x1 * y2) % P
    m = (3 * x1 * x1) % P  # a == 0 for secp256k1
    x3 = (m * m - 2 * s) % P
    y3 = (m * (s - x3) - 8 * y2 * y2) % P
    z3 = (2 * y1 * z1) % P
    return (x3, y3, z3)


def _jac_add_affine(p1, ax, ay):
    # Mixed addition: second operand affine (z == 1) saves field mults.
    x1, y1, z1 = p1
    if z1 == 0:
        return (ax, ay, 1)
    z1s = (z1 * z1) % P
    u2 = (ax * z1s) % P
    s2 = (ay * z1s * z1) % P
    if x1 == u2:
        if y1 != s2:
            return _INF
        return _jac_double(p1)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    h2 = (h * h) % P
    h3 = (h2 * h) % P
    u1h2 = (x1 * h2) % P
    x3 = (r * r - h3 - 2 * u1h2) % P
    y3 = (r * (u1h2 - x3) - y1 * h3) % P
    z3 = (h * z1) % P
    return (x3, y3, z3)


def _to_affine(pt):
    x, y, z = pt
    if z == 0:
        return None
    zi = pow(z, -1, P)
    zi2 = (zi * zi) % P
    return ((x * zi2) % P, (y * zi2 * zi) % P)


def _batch_to_affine(points):
    """Affine forms of Jacobian points, none at infinity, for one field
    inversion in all (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = (acc * z) % P
    inv = pow(acc, -1, P)  # 1 / (z_0 * ... * z_last)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zi = (inv * prefix[i]) % P
        inv = (inv * z) % P
        zi2 = (zi * zi) % P
        out[i] = ((x * zi2) % P, (y * zi2 * zi) % P)
    return out


def _comb_table():
    """Flat affine table: entry ``i * _COMB_ROW + d`` is
    ``d * 2**(_COMB_BITS * i) * G`` for 1 <= d < _COMB_ROW; slot d == 0 of
    each row is None."""
    rows = -(-N.bit_length() // _COMB_BITS)
    bases = [(GX, GY, 1)]
    for _ in range(rows - 1):
        pt = bases[-1]
        for _ in range(_COMB_BITS):
            pt = _jac_double(pt)
        bases.append(pt)
    multiples = []
    for bx, by in _batch_to_affine(bases):
        pt = (bx, by, 1)
        multiples.append(pt)
        for _ in range(_COMB_ROW - 2):
            pt = _jac_add_affine(pt, bx, by)
            multiples.append(pt)
    flat = _batch_to_affine(multiples)
    table = []
    for i in range(0, len(flat), _COMB_ROW - 1):
        table.append(None)
        table.extend(flat[i:i + _COMB_ROW - 1])
    return table


_COMB = _comb_table()


def _comb_add(acc, k):
    """acc + k*G for 0 <= k < N, one table point per nonzero window of k."""
    mask = _COMB_ROW - 1
    row = 0
    while k:
        d = k & mask
        if d:
            x, y = _COMB[row + d]
            acc = _jac_add_affine(acc, x, y)
        k >>= _COMB_BITS
        row += _COMB_ROW
    return acc


def _glv_split(k):
    """(k1, k2) with k1 + k2*LAMBDA == k (mod N) and |k1|, |k2| < 2**129,
    for 0 <= k < N: k rounded against the short lattice basis."""
    c1 = (2 * _B2 * k + N) // (2 * N)
    c2 = (-2 * _B1 * k + N) // (2 * N)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _wnaf(k):
    """Width-_WNAF_WIDTH NAF of k >= 0, least significant digit first.

    Every digit is 0 or odd with |d| < 2**(_WNAF_WIDTH - 1), any nonzero
    digit is followed by at least _WNAF_WIDTH - 1 zeros, and
    sum(d * 2**i) == k.
    """
    window = 1 << _WNAF_WIDTH
    half = window >> 1
    digits = []
    while k:
        if k & 1:
            d = k & (window - 1)
            if d >= half:
                d -= window
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _signed_multiples(odd):
    """Lookup list for wNAF digits: ``table[d]`` is d*Q for odd d with
    |d| < 2**(_WNAF_WIDTH - 1), where odd = [Q, 3Q, 5Q, ...] in affine
    form. Negative d index from the end, which holds the negations."""
    table = [None] * (1 << _WNAF_WIDTH)
    for j, (x, y) in enumerate(odd):
        table[2 * j + 1] = (x, y)
        table[-(2 * j + 1)] = (x, P - y)
    return table


def _glv_ladder(k, qx, qy):
    """k * Q in Jacobian form: GLV split, then one interleaved wNAF ladder
    over the odd multiples of Q and LAMBDA * Q."""
    k1, k2 = _glv_split(k % N)
    # Odd multiples Q, 3Q, ... by repeated addition of an affine 2Q.
    tx, ty = _to_affine(_jac_double((qx, qy, 1)))
    odd = [(qx, qy, 1)]
    for _ in range((1 << (_WNAF_WIDTH - 2)) - 1):
        odd.append(_jac_add_affine(odd[-1], tx, ty))
    odd = _batch_to_affine(odd)
    table1 = _signed_multiples(odd)
    table2 = _signed_multiples([((_BETA * x) % P, y) for x, y in odd])
    n1 = _wnaf(abs(k1))
    n2 = _wnaf(abs(k2))
    if k1 < 0:
        n1 = [-d for d in n1]
    if k2 < 0:
        n2 = [-d for d in n2]
    length = max(len(n1), len(n2))
    n1 += [0] * (length - len(n1))
    n2 += [0] * (length - len(n2))
    acc = _INF
    for i in range(length - 1, -1, -1):
        acc = _jac_double(acc)
        d = n1[i]
        if d:
            x, y = table1[d]
            acc = _jac_add_affine(acc, x, y)
        d = n2[i]
        if d:
            x, y = table2[d]
            acc = _jac_add_affine(acc, x, y)
    return acc


def scalar_mult(k, px, py):
    """k * (px, py) in affine form, or None for the point at infinity."""
    return _to_affine(_glv_ladder(k, px, py))


def scalar_base_mult(k):
    """k * G in affine form, or None for the point at infinity."""
    return _to_affine(_comb_add(_INF, k % N))


def shamir_mult(u1, u2, px, py):
    """u1*G + u2*(px, py): the GLV ladder for u2, the comb table for u1."""
    return _to_affine(_comb_add(_glv_ladder(u2, px, py), u1 % N))
