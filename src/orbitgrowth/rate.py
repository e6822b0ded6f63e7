"""Per-period point counts aggregated into a growth-rate lower bound.

Given counts N_nu of distinguished fixed points of the nu-th iterate, the
finite-sample growth-rate estimate is max over nu of (1/nu) log N_nu, to be
compared against the target log d.  The interval bound floor(eps*d^nu/2) is
the guaranteed number of landing classes among the fixed angles in an arc of
length eps, via the non-crossing class-count bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .circle import _require_degree
from .dynamics import _require_int

MAX_BOUND_DIGITS = 4300    # Python's default limit on the digits of an int printed as text


@dataclass(frozen=True)
class RateEstimate:
    d: int
    samples: tuple[tuple[int, int], ...]   # (nu, count)
    per_sample: tuple[float, ...]          # (1/nu) * log(count)
    estimate: float                        # max of per_sample
    target: float                          # log |d|
    margin: float                          # estimate - target

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "samples": [list(s) for s in self.samples],
            "per_sample": list(self.per_sample),
            "estimate": self.estimate,
            "target": self.target,
            "margin": self.margin,
        }

    def rows(self) -> list[dict]:
        """One CSV-ready row per sample."""
        return [
            {
                "nu": nu,
                "count": count,
                "log_count_over_nu": per,
                "target": self.target,
                "margin": per - self.target,
            }
            for (nu, count), per in zip(self.samples, self.per_sample)
        ]


def rate_estimate(d: int, samples) -> RateEstimate:
    """Aggregate (nu, count) samples into the growth-rate lower bound.

    >>> rate_estimate(2, [(k, 2**k) for k in range(1, 11)]).estimate == math.log(2)
    True
    """
    d = _require_degree(d)
    samples = tuple(samples)
    if not samples:
        raise ValueError("at least one (nu, count) sample is required")
    samples = tuple((_require_int(nu, "nu", 1), _require_int(count, "count", 1))
                    for nu, count in samples)
    seen = set()
    for nu, _ in samples:
        if nu in seen:
            raise ValueError(f"duplicate nu={nu}")
        seen.add(nu)
    per = tuple(math.log(count) / nu for nu, count in samples)
    estimate = max(per)
    target = math.log(abs(d))
    return RateEstimate(
        d=d,
        samples=samples,
        per_sample=per,
        estimate=estimate,
        target=target,
        margin=estimate - target,
    )


def interval_class_bound(d: int, nu: int, eps) -> int:
    """Closed-form count floor(eps * d^nu / 2) of landing classes among the
    period-nu angles in an arc of length eps.

    The arc holds floor(eps*d^nu) fixed angles of the nu-th iterate.  A
    non-crossing partition of n consecutive angles with no adjacent pair in
    one class has at least floor(n/2)+1 classes, which the closed form
    packages.  Landing classes can hold an adjacent pair: z^2 - 2 lands
    511/1023 and 512/1023 together.  So the closed form does not follow from
    that premise; it held on every arc tried (eps = 1/2, 1/3, 1/4 and 1/8,
    every start, five quadratic maps, nu <= 8), and z^2 - 2 attains it on
    [1/4, 3/4] at nu = 10.  A nu for which |d|^nu has more than
    MAX_BOUND_DIGITS digits is refused before the power is computed.
    """
    d = _require_degree(d)
    nu = _require_int(nu, "nu", 1)
    if nu >= MAX_BOUND_DIGITS / math.log10(abs(d)):
        raise ValueError(f"nu={nu}: {abs(d)}^{nu} has more than {MAX_BOUND_DIGITS} digits")
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return int(eps * abs(d) ** nu / 2)
