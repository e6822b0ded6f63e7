"""The unicritical family z -> z^d + c and its escape/containment geometry."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class UnicriticalMap:
    """f(z) = z^d + c with an integer d >= 2 and a finite c; the only finite
    critical point is 0."""

    d: int
    c: complex

    def __post_init__(self):
        object.__setattr__(self, "d", _require_int(self.d, "degree", 2))
        if not isinstance(self.c, numbers.Number):
            raise ValueError(f"c must be a number, got {self.c!r}")
        object.__setattr__(self, "c", complex(self.c))
        if not np.isfinite(self.c):
            raise ValueError(f"c must be finite, got {self.c!r}")

    def __call__(self, z):
        return z**self.d + self.c


def _is_integer(n) -> bool:
    """n is a Python or numpy integer and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _require_int(n, name: str, least: int) -> int:
    """n as a Python int, or ValueError unless it is an integer >= least; a
    numpy integer's products and powers wrap round, so none is kept."""
    if not (_is_integer(n) and n >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")
    return int(n)


def principal_root(u: np.ndarray, d: int) -> np.ndarray:
    """Root 0 of the d inverse-branch roots of each u; root j is this times
    _roots_of_unity(d)[j], |u|^(1/d) exp(i (arg u + 2 pi j) / d) with arg u in
    [0, 2 pi).  So root j's argument lies in [2 pi j/d, 2 pi (j+1)/d): the
    positive real axis of u is the branch cut, and u on it maps to sector 0.

    >>> (principal_root(np.array([9 + 0j]), 2) * _roots_of_unity(2)).round(12).tolist()
    [(3+0j), (-3+0j)]
    """
    r = np.abs(u) ** (1.0 / d)
    ang = np.arctan2(u.imag, u.real)
    ang += (ang < 0.0) * (2.0 * math.pi)
    return r * np.exp(1j * (ang * (1.0 / d)))


def nearest_branch(p: np.ndarray, seeds: np.ndarray, d: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The branch j whose root p * _roots_of_unity(d)[j] lies nearest seeds,
    over the broadcast shape of p and seeds, by np.argmin's rules: a tie goes
    to the lower branch and a NaN distance to the first NaN.  Below 128 d^2
    samples argmin scans each sample's d distances side by side; past that a
    strict running minimum over d contiguous slices (NaN put below every
    distance) takes its place.  out, if given, receives the picked roots."""
    roots, shape = _roots_of_unity(d), np.broadcast(p, seeds).shape
    if math.prod(shape) < 128 * d * d:
        picks = np.abs(p[..., None] * roots - seeds[..., None]).argmin(axis=-1)
    else:
        # in place, as the large temporaries cost more than the arithmetic
        diff = np.empty((d, *shape), dtype=complex)
        np.multiply(p, roots.reshape(-1, *[1] * len(shape)), out=diff)
        dist = np.abs(np.subtract(diff, seeds, out=diff))
        np.fmax(dist, -1.0, out=dist)
        picks = np.zeros(dist.shape[1:], dtype=np.intp)
        for j in range(1, d):
            # j tops every earlier pick, so it wins just where dist[j] is less
            np.maximum(picks, (dist[j] < dist[0]) * j, out=picks)
            np.minimum(dist[0], dist[j], out=dist[0])
    if out is not None:
        np.multiply(p, roots[picks], out=out)
    return picks


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
    # a root is the least index of its tree and every parent lies below its
    # child, so jumping each pointer to its parent's parent reaches the roots
    labels = np.array(parent, dtype=np.intp)
    while True:
        jumped = labels[labels]
        if (jumped == labels).all():
            return labels
        labels = jumped


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
        return asdict(self)


def verify_disk_hypothesis(m: UnicriticalMap, radius: float) -> DiskHypothesisReport:
    """Check that U = disk(0, radius) avoids the critical value and pulls back
    compactly into itself, the setting in which every periodic symbol sequence
    is realized by a periodic point.

    >>> verify_disk_hypothesis(UnicriticalMap(2, -6), 4.0).ok
    True
    """
    if not 0 < radius < math.inf:       # NaN fails too
        raise ValueError("radius must be finite and positive")
    cv_margin = abs(m.c) - radius
    pb_margin = radius - (radius + abs(m.c)) ** (1.0 / m.d)
    return DiskHypothesisReport(
        ok=cv_margin > 0 and pb_margin > 0,
        radius=radius,
        critical_value_margin=cv_margin,
        pullback_margin=pb_margin,
    )
