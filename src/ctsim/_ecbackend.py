"""Pure-Python secp256k1 point arithmetic: the one curve kernel.

Points cross the API boundary as affine ``(x, y)`` integer pairs; the point
at infinity is ``None``. Internally everything runs in Jacobian coordinates
to avoid a field inversion per group operation. ``BACKEND`` names the
kernel so benchmarks can record which one they measured.
"""

BACKEND = "pure"

# Curve: y^2 = x^3 + 7 over GF(P), group order N, base point G.
P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

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
    zi = pow(z, P - 2, P)
    zi2 = (zi * zi) % P
    return ((x * zi2) % P, (y * zi2 * zi) % P)


def _jac_mult(k, ax, ay):
    k %= N
    acc = _INF
    for i in range(k.bit_length() - 1, -1, -1):
        acc = _jac_double(acc)
        if (k >> i) & 1:
            acc = _jac_add_affine(acc, ax, ay)
    return acc


def scalar_mult(k, px, py):
    """k * (px, py) in affine form, or None for the point at infinity."""
    return _to_affine(_jac_mult(k, px, py))


def scalar_base_mult(k):
    """k * G in affine form, or None for the point at infinity."""
    return _to_affine(_jac_mult(k, GX, GY))


def shamir_mult(u1, u2, px, py):
    """u1*G + u2*(px, py) via an interleaved double-and-add ladder."""
    u1 %= N
    u2 %= N
    gp = _to_affine(_jac_add_affine((GX, GY, 1), px, py))
    bits = max(u1.bit_length(), u2.bit_length())
    acc = _INF
    for i in range(bits - 1, -1, -1):
        acc = _jac_double(acc)
        b1 = (u1 >> i) & 1
        b2 = (u2 >> i) & 1
        if b1 and b2:
            if gp is None:
                pass  # G + P is the identity; adding it is a no-op
            else:
                acc = _jac_add_affine(acc, gp[0], gp[1])
        elif b1:
            acc = _jac_add_affine(acc, GX, GY)
        elif b2:
            acc = _jac_add_affine(acc, px, py)
    return _to_affine(acc)
