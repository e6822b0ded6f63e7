"""Exact rational arithmetic on the circle R/Z and the times-d covering map.

Angles are reduced fractions in [0, 1); all operations are exact, so periodic
orbits of the map theta -> d*theta (mod 1) can be followed without drift for
arbitrarily large denominators.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .dynamics import _is_integer


class Angle(Fraction):
    """A point of the circle R/Z, stored as a reduced fraction in [0, 1).

    Accepts anything Fraction accepts (plus an optional denominator) and
    wraps the value mod 1:

    >>> Angle(3, 6)
    Angle(1/2)
    >>> Angle(9, 7)
    Angle(2/7)
    >>> Angle("0/5")
    Angle(0/1)
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if isinstance(numerator, int) and isinstance(denominator, int):
            # (n % den) / den is n/den mod 1 for either sign of den: one normalisation
            return super().__new__(cls, numerator % denominator, denominator)
        value = Fraction(numerator) if denominator is None else Fraction(numerator, denominator)
        return super().__new__(cls, value.numerator % value.denominator, value.denominator)

    def __repr__(self) -> str:
        return f"Angle({self.numerator}/{self.denominator})"

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def angle_from_string(text: str) -> Angle:
    """Parse "p/q" (or a plain integer string) into an Angle."""
    return Angle(text.strip())


def _require_degree(d: int) -> None:
    if not _is_integer(d) or abs(d) < 2:
        raise ValueError(f"degree must be an integer with |d| >= 2, got {d!r}")


def multiply(theta: Angle, d: int) -> Angle:
    """Apply the degree-d covering theta -> d*theta (mod 1), exactly.

    >>> multiply(Angle(1, 7), 2)
    Angle(2/7)
    """
    _require_degree(d)
    t = theta if isinstance(theta, Fraction) else Fraction(theta)
    return Angle(d * t.numerator, t.denominator)


def circle_dist(a: Angle, b: Angle) -> Fraction:
    """Exact arc-length distance on a circle of total length 1, in [0, 1/2]."""
    diff = abs(Fraction(a) - Fraction(b))
    return min(diff, 1 - diff)


def periodic_angles(d: int, nu: int) -> list[Angle]:
    """All solutions of d^nu * theta = theta (mod 1), sorted around the circle.

    These are k/N for N = |d^nu - 1|; for d >= 2 there are exactly d^nu - 1
    of them.
    """
    _require_degree(d)
    if nu < 1:
        raise ValueError(f"nu must be >= 1, got {nu}")
    n = abs(d**nu - 1)
    return [Angle(k, n) for k in range(n)]


def exact_period(theta: Angle, d: int) -> int | None:
    """Least n with d^n * theta = theta (mod 1), or None if theta is not periodic.

    theta = p/q (reduced) is periodic iff gcd(q, d) = 1, in which case the
    period is the multiplicative order of d mod q.  Strictly preperiodic
    angles (denominator sharing a factor with d) return None.
    """
    _require_degree(d)
    q = theta.denominator
    if q == 1:
        return 1
    if gcd(abs(d), q) != 1:
        return None
    e = d % q
    n = 1
    while e != 1:
        e = (e * d) % q
        n += 1
    return n


def cyclic_order(a: Angle, b: Angle, c: Angle) -> bool:
    """True iff b lies in the positively oriented open arc from a to c.

    >>> cyclic_order(Angle(3, 4), Angle(0), Angle(1, 4))
    True
    """
    if a == b or b == c or a == c:
        raise ValueError("cyclic_order requires pairwise distinct angles")
    return (Fraction(b) - Fraction(a)) % 1 < (Fraction(c) - Fraction(a)) % 1


def in_one_gap(anchor: Sequence[int], other: Sequence[int], modulus: int) -> bool:
    """True iff every tick of other lies in one closed gap of anchor.

    Ticks are integers k standing for the angles k/modulus; anchor is sorted
    and has at least two distinct ticks, and its gaps are the closed arcs
    between cyclically consecutive anchor ticks.

    >>> in_one_gap((0, 2), (2, 3), 4)
    True
    >>> in_one_gap((0, 2), (1, 3), 4)
    False
    """
    n = len(anchor)
    for i, start in enumerate(anchor):
        width = (anchor[(i + 1) % n] - start) % modulus
        if all((t - start) % modulus <= width for t in other):
            return True
    return False


def orbit(theta: Angle, d: int, limit: int | None = None) -> list[Angle]:
    """Forward orbit of theta under multiplication by d, up to first repeat.

    Finite for every rational angle; the returned list starts at theta and
    contains each visited angle once.  With a limit, an orbit of more than
    limit angles raises ValueError instead of being built.
    """
    _require_degree(d)
    # follow numerators over the fixed denominator q: p/q -> (d*p mod q)/q,
    # so no Angle is built for an orbit the limit rejects
    p, q = theta.numerator, theta.denominator
    seen: set[int] = set()
    numerators: list[int] = []
    while p not in seen:
        if limit is not None and len(numerators) >= limit:
            raise ValueError(f"the orbit of {theta} under multiplication by {d} "
                             f"has more than {limit} angles")
        seen.add(p)
        numerators.append(p)
        p = p * d % q
    return [Angle(x, q) for x in numerators]
