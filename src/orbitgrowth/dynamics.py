"""The unicritical family z -> z^d + c and its escape/containment geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class UnicriticalMap:
    """f(z) = z^d + c with d >= 2; the only finite critical point is 0."""

    d: int
    c: complex

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"degree must be >= 2, got {self.d}")

    def __call__(self, z):
        return z**self.d + self.c


def branch_roots(u: np.ndarray, d: int) -> np.ndarray:
    """All d inverse-branch roots of each u, in sector order, on a new last axis.

    Root i (0-based) is |u|^(1/d) exp(i (arg u + 2 pi i) / d) with arg u in
    [0, 2 pi), so its argument lies in [2 pi i/d, 2 pi (i+1)/d): the positive
    real axis of u is the branch cut, and u on it maps to the lower sector.

    >>> np.round(branch_roots(np.array([9 + 0j]), 2), 12).tolist()
    [[(3+0j), (-3+0j)]]
    """
    r = np.abs(u) ** (1.0 / d)
    ang = np.arctan2(u.imag, u.real)
    ang = np.where(ang < 0.0, ang + 2.0 * math.pi, ang)
    return (r * np.exp(1j * ang / d))[..., None] * _roots_of_unity(d)


@lru_cache(maxsize=16)
def _roots_of_unity(d: int) -> np.ndarray:
    roots = np.exp(2j * math.pi * np.arange(d) / d)
    roots.flags.writeable = False   # every caller shares the cached array
    return roots


def _single_linkage(points: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage components of points at radius tol.

    Points within tol of each other, and chains of such points, share a
    component; each point is labelled with the least index in its component.
    The points are swept in order of real part, each paired with its
    successors at offsets 1, 2, ... until no pair at the current offset is
    within tol in real part.  Since |Re(p - q)| <= |p - q| this finds every
    close pair, in O(n) memory and O(n log n) time plus the pairs that are
    close in real part.
    """
    n = len(points)
    order = np.argsort(points.real, kind="stable")
    xs = points.real[order]
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for offset in range(1, n):
        near = np.flatnonzero(xs[offset:] - xs[:-offset] <= tol)
        if near.size == 0:
            break
        i, j = order[near], order[near + offset]
        close = np.abs(points[i] - points[j]) <= tol
        for a, b in zip(i[close].tolist(), j[close].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(x) for x in range(n)], dtype=np.intp)


def escape_radius(m: UnicriticalMap) -> float:
    """R with |z| >= R implying |f(z)| >= 2|z|: R = max(2, (2+|c|)^(1/(d-1)))."""
    return max(2.0, (2.0 + abs(m.c)) ** (1.0 / (m.d - 1)))


@dataclass(frozen=True)
class DiskHypothesisReport:
    """Outcome of the invariant-disk check for U = disk(0, radius).

    ok requires the critical value to lie outside the closed disk
    (critical_value_margin = |c| - R > 0) and the closure of f^{-1}(U) to lie
    inside it (pullback_margin = R - (R+|c|)^(1/d) > 0).  Both bounds are
    exact for this family.
    """

    ok: bool
    radius: float
    critical_value_margin: float
    pullback_margin: float

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "radius": self.radius,
            "critical_value_margin": self.critical_value_margin,
            "pullback_margin": self.pullback_margin,
        }


def verify_disk_hypothesis(m: UnicriticalMap, radius: float) -> DiskHypothesisReport:
    """Check that U = disk(0, radius) avoids the critical value and pulls back
    compactly into itself, the setting in which every periodic symbol sequence
    is realized by a periodic point.

    >>> verify_disk_hypothesis(UnicriticalMap(2, -6), 4.0).ok
    True
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    cv_margin = abs(m.c) - radius
    pb_margin = radius - (radius + abs(m.c)) ** (1.0 / m.d)
    return DiskHypothesisReport(
        ok=cv_margin > 0 and pb_margin > 0,
        radius=radius,
        critical_value_margin=cv_margin,
        pullback_margin=pb_margin,
    )
