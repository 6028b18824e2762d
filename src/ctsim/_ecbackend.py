"""Pure-Python secp256k1 point arithmetic: the one curve kernel.

Points cross the API boundary as affine ``(x, y)`` integer pairs; the point
at infinity is ``None``. Internally points are Jacobian ``(X, Y, Z)``, every
addition adds an affine point (mixed addition), and a result costs one field
inversion, ``pow(z, -1, P)``. ``BACKEND`` names the kernel so benchmarks can
record which one they measured.

Every multiplication is one Lim-Lee comb walk over tables of one shape: 8
teeth at spacing 17. The table of a point B holds
``sum(b_j * 2**(17*j) * B)`` for every nonzero 8-bit b (255 points), so it
covers multipliers below 2**136. Bit i of each of the 8 17-bit chunks of a
multiplier picks the entry added at column i, and a walk over any number of
terms shares one run of 17 doublings.

Every scalar is split with the GLV endomorphism into two signed halves
below 2**129, k == k1 + k2*LAMBDA (mod N), and ``LAMBDA * (x, y) ==
(BETA * x, y)``, so the k2 term walks B's own table and maps each entry's x
as it adds it: one field multiplication per such addition, and no second
table in memory.

- G's table is built at import: ``scalar_base_mult`` walks (G, k1) and
  (LAMBDA*G, k2), 17 doublings and at most 34 mixed additions.
- A variable point Q gets its table on first use, cached per point, since a
  run checks many signatures under few keys. ``scalar_mult`` walks (Q, k1)
  and (LAMBDA*Q, k2) in the same 17 doublings and at most 34 additions;
  ``shamir_mult`` walks both halves of u1 on G and of u2 on Q together, 17
  doublings and at most 68 additions.

References: C. H. Lim and P. J. Lee, "More flexible exponentiation with
precomputation", CRYPTO 1994; D. Hankerson, A. Menezes and S. Vanstone,
*Guide to Elliptic Curve Cryptography*, Springer 2004, sections 3.3.2
(fixed-base comb) and 3.5 (balanced length-two scalar decomposition);
R. Gallant, R. Lambert and S. Vanstone, "Faster point multiplication on
elliptic curves with efficient endomorphisms", CRYPTO 2001.

The three public functions never call one another, so each call of one of
them is one unit of kernel work to anything that wraps them.
"""

from functools import lru_cache

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

# Every comb table: 8 teeth, 17 columns, covering multipliers below 2**136,
# which holds any GLV half.
_COMB_TEETH = 8
_COMB_SPACING = 17
_COMB_BITS = _COMB_TEETH * _COMB_SPACING

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


def _batch_inverse(values):
    """Inverses mod P of nonzero field elements, for one field inversion in
    all (Montgomery's trick)."""
    prefix = []
    acc = 1
    for v in values:
        prefix.append(acc)
        acc = (acc * v) % P
    inv = pow(acc, -1, P)  # 1 / (v_0 * ... * v_last)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = (inv * prefix[i]) % P
        inv = (inv * values[i]) % P
    return out


def _batch_to_affine(points):
    """Affine forms of Jacobian points, none at infinity, for one field
    inversion in all."""
    out = []
    for (x, y, _), zi in zip(points, _batch_inverse([p[2] for p in points])):
        zi2 = (zi * zi) % P
        out.append(((x * zi2) % P, (y * zi2 * zi) % P))
    return out


def _glv_split(k):
    """(k1, k2) with k1 + k2*LAMBDA == k (mod N) and |k1|, |k2| < 2**129,
    for 0 <= k < N: k rounded against the short lattice basis."""
    c1 = (2 * _B2 * k + N) // (2 * N)
    c2 = (-2 * _B1 * k + N) // (2 * N)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _comb_points(base):
    """Comb table of the affine point base: entry b is
    ``sum(b_j * 2**(_COMB_SPACING * j) * base)`` over the bits b_j of b, for
    1 <= b < 2**_COMB_TEETH; entry 0 is None.

    The tooth bases T_j come from Jacobian doublings and one batch
    inversion. The table then grows one tooth at a time in affine
    coordinates: tooth j appends T_j, then e + T_j for every earlier entry e,
    with one batch inversion for the denominators of all the slopes. No e
    equals +-T_j, since both are distinct nonzero multiples of base below
    2**136 < N and base has prime order N, so no addition meets a doubling
    or infinity."""
    teeth = [(base[0], base[1], 1)]
    for _ in range(_COMB_TEETH - 1):
        pt = teeth[-1]
        for _ in range(_COMB_SPACING):
            pt = _jac_double(pt)
        teeth.append(pt)
    table = [None]
    for tx, ty in _batch_to_affine(teeth):
        earlier = table[1:]
        table.append((tx, ty))
        inv_dx = _batch_inverse([ex - tx for ex, _ in earlier])
        for (ex, ey), inv in zip(earlier, inv_dx):
            m = ((ey - ty) * inv) % P
            x = (m * m - tx - ex) % P
            table.append((x, (m * (tx - x) - ty) % P))
    return table


_G_TABLE = _comb_points((GX, GY))


# An entry (255 points) takes about 45 KB, so the cache holds at most
# about 12 MB.
@lru_cache(maxsize=256)
def _point_table(px, py):
    """The comb table of Q = (px, py)."""
    return _comb_points((px, py))


def _comb_walk(terms):
    """Jacobian sum of k * B over terms (comb table of B, k, lam), with
    |k| < 2**_COMB_BITS. A negative k adds negated entries, and with lam set
    the term is k * LAMBDA * B, each entry (x, y) added as (BETA * x, y).
    All terms share one run of _COMB_SPACING doublings."""
    walks = []
    for table, k, lam in terms:
        bits = format(abs(k), "0%db" % _COMB_BITS)
        # bits[i::17] holds bit 16 - i of every 17-bit chunk of |k|, top
        # chunk first: the table index of column 16 - i
        walks.append((table, lam, k < 0, [int(bits[i::_COMB_SPACING], 2)
                                          for i in range(_COMB_SPACING)]))
    acc = _INF
    for i in range(_COMB_SPACING):
        if i:
            acc = _jac_double(acc)
        for table, lam, negate, columns in walks:
            if columns[i]:
                x, y = table[columns[i]]
                acc = _jac_add_affine(acc, (_BETA * x) % P if lam else x,
                                      P - y if negate else y)
    return acc


def scalar_mult(k, px, py):
    """k * (px, py) in affine form, or None for the point at infinity."""
    k1, k2 = _glv_split(k % N)
    table = _point_table(px, py)
    return _to_affine(_comb_walk(((table, k1, False), (table, k2, True))))


def scalar_base_mult(k):
    """k * G in affine form, or None for the point at infinity."""
    k1, k2 = _glv_split(k % N)
    return _to_affine(_comb_walk(((_G_TABLE, k1, False),
                                  (_G_TABLE, k2, True))))


def shamir_mult(u1, u2, px, py):
    """u1*G + u2*(px, py): both GLV halves of u1 and of u2 in one comb
    walk."""
    g1, g2 = _glv_split(u1 % N)
    k1, k2 = _glv_split(u2 % N)
    table = _point_table(px, py)
    return _to_affine(_comb_walk(
        ((table, k1, False), (table, k2, True),
         (_G_TABLE, g1, False), (_G_TABLE, g2, True))))
