"""Periodic points from inverse-branch itineraries, at controlled precision.

For f(z) = z^d + c with an invariant disk that avoids the critical value
(see dynamics.verify_disk_hypothesis), the d inverse branches of f are the
d-th roots of z - c, indexed by the argument sector of the root.  Composing
the branches of a periodic symbol word and iterating contracts to the unique
periodic point realizing that word, and running over all d^k words of length
k produces all d^k fixed points of f^k.

A word and its rotations name the points of one periodic orbit, on which f
acts as the left shift, so one engine serves one word and all d^k alike:

* Seed: each word's representative is its smallest rotation (by base-d
  code); the composed inverse branches run in float64 over all of them at
  once (dynamics.branch_roots) until no cycle moves by 1e-13.
* Polish: each representative takes Newton steps on F(z) = f^k(z) - z in
  mpmath until a step is below the displacement tolerance, at `dps` plus
  k log10(d R^(d-1)) guard digits, as |f'| <= d R^(d-1) on the disk |z| <= R.
* Images: the word that is the representative rotated left by t gets z_t of
  its forward images z_0 .. z_(2k-1).  The residual |z_(t+k) - z_t| must be
  within residual_tol and z_t .. z_(t+k) must follow the word's sectors, or
  the word is not converged.

Both loops stop after `MAX_CYCLES`; `ItineraryResult.cycles` counts the
Newton steps of the word's representative.  The polish runs in mpmath
because the residual of a double-precision point is amplified by |(f^k)'|
(about 6^12 ~ 2e9 for the degree-2, c=-6 family at k=12), so float64 cannot
certify small residuals at useful word lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mpc, mpf, workdps

from .dynamics import UnicriticalMap, _single_linkage, branch_roots, verify_disk_hypothesis

# Largest d^k * (k + d) count_periodic accepts: its d^k words each hold a
# point, and their ~d^k/k representatives 2k orbit points with d roots each.
# A call holds at most about 85 bytes per such entry at its peak (tracemalloc:
# 37-57 for d = 2, k = 10..13; 69-85 for d = 3, k = 6..8; 61-70 for d = 40,
# k = 1..2; 40 for d = 2000, k = 1), so the limit keeps a call under about
# 1 GB; it admits k = 18 for d = 2 and k = 12 for d = 3.
MAX_ITINERARY_ENTRIES = 10_000_000

MAX_CYCLES = 400        # cap on seed sweeps and Newton steps; convergent words stop sooner
DEDUP_TOL = 1e-10       # points this close are one: below any periodic-point separation


class NonConvergenceError(RuntimeError):
    """An itinerary word found no periodic point that follows it within the
    cycle budget, or distinct words gave coinciding points."""


@dataclass
class ItineraryConfig:
    dps: int = 40                 # working precision, decimal digits
    residual_tol: float = 1e-12   # bound certified on |f^k(z) - z|

    def __post_init__(self):
        if self.dps < 15:
            raise ValueError("dps below double precision is pointless")
        if self.residual_tol <= 0:
            raise ValueError("tolerances must be positive")

    @property
    def displacement_tol(self) -> mpf:
        return mpf(10) ** (-(self.dps - 8))

    @property
    def snap_tol(self) -> mpf:
        # A polished point whose imaginary part is this small against its
        # modulus is taken as real, so real periodic points stay exactly real.
        return mpf(10) ** (-(self.dps - 10))


@dataclass
class ItineraryResult:
    word: tuple[int, ...]
    point: mpc
    residual: float               # |f^k(point) - point|, evaluated at full precision
    converged: bool
    cycles: int

    def to_dict(self) -> dict:
        return {
            "word": list(self.word),
            "point": [float(self.point.real), float(self.point.imag)],
            "residual": self.residual,
            "converged": self.converged,
            "cycles": self.cycles,
        }


def _snap_f64(u: np.ndarray) -> np.ndarray:
    """Put u within 1e-13 (relative) of the real axis exactly on it: a tie at
    the sector boundary, resolved toward the lower sector; without the snap,
    rounding noise across the branch cut flips the sector for real orbits."""
    return np.where(np.abs(u.imag) <= 1e-13 * np.abs(u), u.real + 0j, u)


def _require_hypothesis(m: UnicriticalMap, radius: float) -> None:
    report = verify_disk_hypothesis(m, radius)
    if not report.ok:
        raise ValueError(
            "invariant-disk hypothesis fails for "
            f"radius {radius}: margins {report.critical_value_margin:.4g}, "
            f"{report.pullback_margin:.4g}"
        )


def _solve(
    m: UnicriticalMap, codes: np.ndarray, k: int, radius: float, cfg: ItineraryConfig
) -> tuple[list[mpc], np.ndarray, np.ndarray, list[int]]:
    """Periodic points of the length-k words whose base-d codes (symbols
    0..d-1, most significant first) are `codes`.

    Returns each word's point, its residual |f^k(z) - z| and whether it
    converged: its representative's Newton step fell below the displacement
    tolerance, the residual is within residual_tol, and the orbit follows the
    word's sectors.  Last come the Newton steps of each representative.
    """
    d, c64 = m.d, complex(m.c)
    top = d ** (k - 1)
    # a word is its representative (smallest rotation) rotated left by offset
    rep, offset, rotated = codes, np.zeros(len(codes), dtype=int), codes
    for s in range(1, k):
        rotated = rotated % top * d + rotated // top
        offset = np.where(rotated < rep, k - s, offset)
        rep = np.minimum(rep, rotated)
    reps, word_rep = np.unique(rep, return_inverse=True)
    n = len(reps)
    branches = np.empty((n, k), dtype=np.intp)
    for j in range(k):
        branches[:, j] = reps // top
        reps = reps % top * d + reps // top

    rows = np.arange(n)
    seeds = np.zeros(n, dtype=complex)
    for _ in range(MAX_CYCLES):
        prev = seeds
        for j in range(k - 1, -1, -1):
            seeds = branch_roots(_snap_f64(seeds - c64), d)[rows, branches[:, j]]
        if np.abs(seeds - prev).max() < 1e-13:
            break

    points: list[list[mpc]] = []
    residuals = np.empty((n, k))
    steps: list[int] = []
    settled = np.zeros(n, dtype=bool)
    orbits = np.empty((n, 2 * k), dtype=complex)
    # |f'| <= d R^(d-1) on the disk, so k forward steps lose at most guard digits
    guard = math.ceil(k * (math.log10(d) + (d - 1) * math.log10(radius)))
    with workdps(cfg.dps + guard):
        c = mpc(m.c)
        disp_tol = cfg.displacement_tol
        snap = cfg.snap_tol
        for i, seed in enumerate(seeds.tolist()):
            z = mpc(seed)
            step = 0
            for step in range(1, MAX_CYCLES + 1):
                w, dw = z, 1
                for _ in range(k):
                    p = w ** (d - 1)
                    w, dw = p * w + c, d * p * dw
                delta = (w - z) / (dw - 1)
                z -= delta
                if abs(delta) < disp_tol:
                    settled[i] = True
                    break
            if abs(z.imag) <= snap * abs(z):
                z = mpc(z.real, 0)
            orbit = [z]
            for _ in range(2 * k - 1):
                orbit.append(orbit[-1] ** d + c)
            orbits[i] = [complex(w) for w in orbit]
            residuals[i] = [float(abs(orbit[t + k] - orbit[t])) for t in range(k)]
            points.append(orbit[:k])
            steps.append(step)

    # z_j lies in the sector of its symbol exactly when it is the branch root
    # of z_(j+1) - c that the symbol picks, under the seed's tie snap;
    # misses[:, j] counts the failures among z_0 .. z_(j-1), so a word at
    # offset t follows its sectors when none of z_t .. z_(t+k-1) fails.
    roots = branch_roots(_snap_f64(orbits[:, 1:] - c64), d)
    picked = np.abs(roots - orbits[:, :-1, None]).argmin(axis=2)
    misses = np.zeros((n, 2 * k), dtype=int)
    np.cumsum(picked != branches[:, np.arange(2 * k - 1) % k], axis=1, out=misses[:, 1:])
    follows = misses[word_rep, offset + k] == misses[word_rep, offset]
    word_residuals = residuals[word_rep, offset]
    converged = settled[word_rep] & follows & (word_residuals <= cfg.residual_tol)
    word_points = [points[r][t] for r, t in zip(word_rep.tolist(), offset.tolist())]
    return word_points, word_residuals, converged, steps


def itinerary_point(
    m: UnicriticalMap,
    word,
    *,
    radius: float,
    config: ItineraryConfig | None = None,
) -> ItineraryResult:
    """The periodic point whose orbit follows the cyclic branch word.

    The composed inverse branches g_{a1} o ... o g_{ak} seed the point, and
    Newton steps on f^k(z) - z polish it; the point then satisfies
    f^k(z) = z with the word as the sector itinerary of its orbit.
    """
    cfg = config or ItineraryConfig()
    word = tuple(int(a) for a in word)
    if not word:
        raise ValueError("itinerary word must be non-empty")
    if any(not 1 <= a <= m.d for a in word):
        raise ValueError(f"word symbols must lie in 1..{m.d}: {word}")
    _require_hypothesis(m, radius)
    code = sum((a - 1) * m.d**j for j, a in enumerate(reversed(word)))
    points, residuals, converged, steps = _solve(   # object: exact past 64 bits
        m, np.array([code], dtype=object), len(word), radius, cfg)
    return ItineraryResult(
        word=word,
        point=points[0],
        residual=float(residuals[0]),
        converged=bool(converged[0]),
        cycles=steps[0],
    )


@dataclass
class PeriodicPointCount:
    k: int
    count: int
    points: list[mpc]
    max_residual: float
    polished: int = 0             # necklaces polished, one per rotation class
    newton_steps: int = 0         # total over those polishes; both kept out of to_dict

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "count": self.count,
            "points": [[float(z.real), float(z.imag)] for z in self.points],
            "max_residual": self.max_residual,
        }


def count_periodic(
    m: UnicriticalMap,
    k: int,
    *,
    radius: float,
    config: ItineraryConfig | None = None,
) -> PeriodicPointCount:
    """Count fixed points of f^k by sweeping all d^k itinerary words.

    Returns the d^k points in order of (real, imaginary) part.  Raises
    NonConvergenceError if any word fails to converge to a point whose orbit
    follows it, or if any two points lie within DEDUP_TOL, directly or by a
    chain (the single-linkage sweep that groups landing points): under the
    disk hypothesis distinct words give distinct points, so a broken
    word-point bijection is reported, never merged or counted short.
    Raises ValueError above MAX_ITINERARY_ENTRIES.
    """
    if k < 1:
        raise ValueError(f"word length must be >= 1, got {k}")
    # d^k >= 2^k, so past the limit's bit length d**k need not be computed
    if k > MAX_ITINERARY_ENTRIES.bit_length() or m.d**k * (k + m.d) > MAX_ITINERARY_ENTRIES:
        raise ValueError(
            f"the {m.d}^{k} itineraries of length {k} need more than "
            f"{MAX_ITINERARY_ENTRIES} array entries (about 1 GB); lower k"
        )
    cfg = config or ItineraryConfig()
    _require_hypothesis(m, radius)
    n = m.d**k
    # word i spells i in base d, most significant symbol first: the order of
    # itertools.product(range(d), repeat=k)
    points, residuals, converged, steps = _solve(m, np.arange(n), k, radius, cfg)
    if not converged.all():
        i = int(np.argmin(converged))
        word = tuple(i // m.d ** (k - 1 - j) % m.d + 1 for j in range(k))
        raise NonConvergenceError(
            f"itinerary {word} found no periodic point that follows it within "
            f"{MAX_CYCLES} cycles (residual {residuals[i]:.3g})"
        )

    pts = np.array([complex(z) for z in points])
    distinct = int(np.count_nonzero(_single_linkage(pts, DEDUP_TOL) == np.arange(n)))
    if distinct < n:
        raise NonConvergenceError(
            f"{n} itineraries of length {k} gave only {distinct} points "
            f"{DEDUP_TOL:g} apart"
        )
    return PeriodicPointCount(
        k=k,
        count=n,
        points=[points[i] for i in np.lexsort((pts.imag, pts.real)).tolist()],
        max_residual=float(residuals.max()),
        polished=len(steps),
        newton_steps=sum(steps),
    )

