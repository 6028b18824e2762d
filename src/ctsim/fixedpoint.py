"""Unit-interval fixed-point arithmetic, 12 decimal digits.

Trust scores, stakes and difficulty values are stored as plain integers
scaled by 10**12. Floor semantics everywhere; no floats touch consensus or
trust state, so replicas agree bit-for-bit across runs and machines.
"""

from __future__ import annotations

from decimal import Decimal, ROUND_HALF_EVEN

SCALE = 10**12
ONE = SCALE


def fp_from(value: float | int | str | Decimal) -> int:
    """Parse a number into fixed-point, rounding half-even at 12 places."""
    if isinstance(value, int):
        return value * SCALE
    d = Decimal(str(value)) if isinstance(value, float) else Decimal(value)
    return int((d * SCALE).to_integral_value(ROUND_HALF_EVEN))


def fp_mul(a: int, b: int) -> int:
    return a * b // SCALE


def to_float(a: int) -> float:
    return a / SCALE
