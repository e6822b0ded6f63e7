"""Periodic points from inverse-branch itineraries, at controlled precision.

For f(z) = z^d + c with an invariant disk that avoids the critical value
(see dynamics.verify_disk_hypothesis), the d inverse branches of f are the
d-th roots of z - c, indexed by the argument sector of the root.  Composing
the branches of a periodic symbol word and iterating contracts to the unique
periodic point realizing that word, and running over all d^k words of length
k produces all d^k fixed points of f^k.

One engine serves a single word and all d^k words alike, in two steps:

* Seed: the words form a (words, k) integer array, and the composed inverse
  branches run in float64 over all of them at once (dynamics.branch_roots)
  until no word's cycle moves by 1e-13.
* Polish: each seed takes Newton steps on F(z) = f^k(z) - z in mpmath at
  `dps` digits until a step is below the displacement tolerance.  The
  residual |f^k(z) - z| is then evaluated at full precision, and the orbit
  must follow the word's sectors, or the word is not converged.

Both steps stop after `max_cycles`; `ItineraryResult.cycles` counts Newton
steps.  The polish runs in mpmath because the residual of a double-precision
point is amplified by |(f^k)'| (about 6^12 ~ 2e9 for the degree-2, c=-6
family at k=12), so float64 cannot certify small residuals at useful word
lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from mpmath import mpc, mpf, workdps

from .dynamics import UnicriticalMap, branch_roots, verify_disk_hypothesis

# Largest d^k * (k + d) count_periodic accepts: its d^k words each hold k
# symbols and orbit points, and take d branch roots per step.  A call holds
# at most about 84 bytes per such entry at its peak (tracemalloc for d = 2,
# k = 10..13; d = 3, k = 6..8; d = 40, k = 1..2; d = 2000, k = 1), so the
# limit keeps a call under about 1 GB; it admits k = 18 for d = 2 and k = 12
# for d = 3.
MAX_ITINERARY_ENTRIES = 10_000_000


class NonConvergenceError(RuntimeError):
    """An itinerary word found no periodic point that follows it within the
    cycle budget, or distinct words gave coinciding points."""


@dataclass
class ItineraryConfig:
    dps: int = 40                 # working precision, decimal digits
    residual_tol: float = 1e-12   # bound certified on |f^k(z) - z|
    max_cycles: int = 400
    dedup_tol: float = 1e-10      # below any true separation of periodic points

    def __post_init__(self):
        if self.dps < 15:
            raise ValueError("dps below double precision is pointless")
        if self.residual_tol <= 0 or self.dedup_tol <= 0:
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
    m: UnicriticalMap, branches: np.ndarray, cfg: ItineraryConfig
) -> tuple[list[mpc], list[float], list[int], np.ndarray]:
    """Periodic points of the words in `branches` (one per row, symbols 0..d-1).

    Returns the points, their residuals |f^k(z) - z|, their Newton step
    counts and whether each converged: a Newton step fell below the
    displacement tolerance, the residual is within residual_tol, and the orbit
    follows the word's sectors.
    """
    n, k = branches.shape
    d, c64 = m.d, complex(m.c)
    rows = np.arange(n)

    seeds = np.zeros(n, dtype=complex)
    for _ in range(cfg.max_cycles):
        prev = seeds
        for j in range(k - 1, -1, -1):
            seeds = branch_roots(_snap_f64(seeds - c64), d)[rows, branches[:, j]]
        if np.abs(seeds - prev).max() < 1e-13:
            break

    points: list[mpc] = []
    residuals: list[float] = []
    steps: list[int] = []
    settled = np.zeros(n, dtype=bool)
    orbits = np.empty((n, k + 1), dtype=complex)
    with workdps(cfg.dps):
        c = mpc(m.c)
        disp_tol = cfg.displacement_tol
        snap = cfg.snap_tol
        for i, seed in enumerate(seeds.tolist()):
            z = mpc(seed)
            step = 0
            for step in range(1, cfg.max_cycles + 1):
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
            for _ in range(k):
                orbit.append(orbit[-1] ** d + c)
            orbits[i] = [complex(w) for w in orbit]
            points.append(z)
            residuals.append(float(abs(orbit[-1] - z)))
            steps.append(step)

    # z_j lies in the sector of its word symbol exactly when it is the branch
    # root of z_{j+1} - c that the word picks, under the seed's tie snap.
    follows = np.ones(n, dtype=bool)
    for j in range(k):
        roots = branch_roots(_snap_f64(orbits[:, j + 1] - c64), d)
        follows &= np.abs(roots - orbits[:, j, None]).argmin(axis=1) == branches[:, j]
    converged = settled & follows & (np.array(residuals) <= cfg.residual_tol)
    return points, residuals, steps, converged


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
    points, residuals, steps, converged = _solve(m, np.array([word]) - 1, cfg)
    return ItineraryResult(
        word=word,
        point=points[0],
        residual=residuals[0],
        converged=bool(converged[0]),
        cycles=steps[0],
    )


@dataclass
class PeriodicPointCount:
    k: int
    count: int
    points: list[mpc]
    max_residual: float

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

    Points closer than the deduplication tolerance are merged (a safety net:
    under the disk hypothesis distinct words give distinct points).  Raises
    NonConvergenceError if any word fails to converge to a point whose orbit
    follows it, or if fewer than d^k distinct points remain, so a broken
    word-point bijection is reported, never counted short.  Raises
    ValueError above MAX_ITINERARY_ENTRIES.
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
    # row i spells i in base d, most significant symbol first: the order of
    # itertools.product(range(d), repeat=k)
    branches = np.arange(n)[:, None] // m.d ** np.arange(k - 1, -1, -1) % m.d
    points, residuals, steps, converged = _solve(m, branches, cfg)
    if not converged.all():
        i = int(np.argmin(converged))
        word = tuple((branches[i] + 1).tolist())
        raise NonConvergenceError(
            f"itinerary {word} found no periodic point that follows it within "
            f"{cfg.max_cycles} cycles (residual {residuals[i]:.3g})"
        )

    representatives = _dedup(np.array([complex(z) for z in points]), cfg.dedup_tol)
    if len(representatives) < n:
        raise NonConvergenceError(
            f"{n} itineraries of length {k} gave only {len(representatives)} points "
            f"{cfg.dedup_tol:g} apart"
        )
    return PeriodicPointCount(
        k=k,
        count=len(representatives),
        points=[points[i] for i in representatives],
        max_residual=max(residuals),
    )


def _dedup(pts: np.ndarray, tol: float) -> list[int]:
    """Indices of representative points, in order of (real, imaginary) part.

    Taken in that order, each point not yet within tol of a representative
    becomes one and takes every point within tol of it.  The points before it
    are all taken by then, and the points within tol after it have real parts
    at most tol above its own, so each representative is compared only with
    the window of real parts up to 2 tol above it (twice tol against
    rounding).
    """
    order = np.lexsort((pts.imag, pts.real))
    xs = pts.real[order]
    ends = np.searchsorted(xs, xs + 2 * tol, side="right")
    taken = np.zeros(len(pts), dtype=bool)   # by sorted position
    representatives = []
    for pos, i in enumerate(order.tolist()):
        if taken[pos]:
            continue
        window = slice(pos, ends[pos])
        taken[window] |= np.abs(pts[order[window]] - pts[i]) <= tol
        representatives.append(i)
    return representatives
