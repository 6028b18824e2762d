"""Fixed-point arithmetic: exactness, floors, and closure on [0, 1]."""

from decimal import Decimal

from ctsim.fixedpoint import ONE, SCALE, fp_from, fp_mul, to_float
from ctsim.crypto import DetRng


def test_scale_constants():
    assert SCALE == 10 ** 12
    assert ONE == SCALE


def test_fp_from_decimal_strings_are_exact():
    assert fp_from("0.1") == 10 ** 11
    assert fp_from("0.000000000001") == 1
    assert fp_from(1) == ONE
    assert fp_from(0) == 0
    assert fp_from(Decimal("0.25")) == ONE // 4


def test_fp_from_float_matches_decimal_for_short_values():
    # scenario files carry values like 0.4; conversion must not pick up
    # binary-float noise
    for text in ("0.1", "0.2", "0.25", "0.4", "0.5", "0.7", "0.9"):
        assert fp_from(float(text)) == fp_from(text)


def test_fp_mul_floors():
    assert fp_mul(fp_from("0.5"), fp_from("0.5")) == fp_from("0.25")
    assert fp_mul(ONE, x := 123456789) == x
    assert fp_mul(1, 1) == 0          # 1e-12 * 1e-12 floors away
    assert fp_mul(ONE - 1, ONE - 1) == ONE - 2


def test_to_float_round_trip_on_coarse_values():
    for text in ("0", "0.1", "0.325", "0.5", "0.95", "1"):
        assert to_float(fp_from(text)) == float(text)


def test_mul_closure_fuzz():
    rng = DetRng(401, b"fpfuzz")
    for _ in range(2000):
        a = rng.randbelow(ONE + 1)
        b = rng.randbelow(ONE + 1)
        p = fp_mul(a, b)
        assert 0 <= p <= ONE
        assert p <= min(a, b)         # multiplying unit values shrinks
