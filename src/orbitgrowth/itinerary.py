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
  once (dynamics.principal_root) until no cycle moves by 1e-13.
* Polish: every representative takes Newton steps on F(z) = f^k(z) - z,
  all at once in fixed-point Python integers (_polish), each until its own
  step is below the displacement tolerance, at `DPS` plus k log10(d R^(d-1))
  guard digits, as |f'| <= d R^(d-1) on the disk |z| <= R.
* Images: the word that is the representative rotated left by t gets z_t of
  its forward images z_0 .. z_(2k-1), taken in mpmath.  The residual
  |z_(t+k) - z_t| must be within RESIDUAL_TOL and z_t .. z_(t+k) must follow
  the word's sectors, or the word is not converged.

Both loops stop after `MAX_CYCLES`; `ItineraryResult.cycles` counts the
Newton steps of the word's representative.  A representative whose seed is
not finite, or whose orbit escapes during the polish, stops unpolished and
its words are not converged.  The polish and the images run past float64
because the residual of a double-precision point is amplified by |(f^k)'|
(about 6^12 ~ 2e9 for the degree-2, c=-6 family at k=12), so float64 cannot
certify small residuals at useful word lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpc, mpf, workdps

from .dynamics import (UnicriticalMap, _is_integer, _roots_of_unity, _single_linkage,
                       nearest_branch, principal_root, verify_disk_hypothesis)

# Largest d^k * (k + d) count_periodic accepts: its d^k words each hold a
# point, and their ~d^k/k representatives 2k orbit points with d roots each.
# A call holds at most about 80 bytes per such entry at its peak (tracemalloc:
# 36-50 for d = 2, k = 10..13; 67-77 for d = 3, k = 6..8; 59-61 for d = 40,
# k = 1..2; 32 for d = 2000, k = 1), so the limit keeps a call under about
# 1 GB; it admits k = 18 for d = 2 and k = 12 for d = 3.
MAX_ITINERARY_ENTRIES = 10_000_000

MAX_CYCLES = 400        # cap on seed sweeps and Newton steps; convergent words stop sooner
DEDUP_TOL = 1e-10       # points this close are one: below any periodic-point separation
DPS = 40                # working precision of the polish, decimal digits
POLISH_GUARD_BITS = 8   # fixed-point bits of the polish beyond mpmath's working precision
RESIDUAL_TOL = 1e-12    # bound certified on |f^k(z) - z|


class NonConvergenceError(RuntimeError):
    """An itinerary word found no periodic point that follows it within the
    cycle budget, or distinct words gave coinciding points."""


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


def _polish(
    seeds: np.ndarray, c: complex, d: int, k: int
) -> tuple[list[mpc], list[int], np.ndarray]:
    """Newton steps on F(z) = f^k(z) - z from every seed at once, in fixed
    point at mpmath's current precision plus POLISH_GUARD_BITS, P bits in all.

    A point is (X + iY) / 2^P for Python integers X, Y in numpy object
    arrays; a product is (a b) >> P and the step n/e is (n conj(e) << P) //
    |e|^2.  Each seed stops at its own first step below the displacement
    tolerance (it settled), after MAX_CYCLES steps, or without taking the
    step once an image reaches |w| >= 2^P |c|: beyond |c| > R the orbit has
    left the invariant disk for good, and the integers' bit lengths would
    double at every further image.  A non-finite seed takes no step.
    Returns the points as mpc, the steps each took and whether it settled.
    """
    P = mp.prec + POLISH_GUARD_BITS
    one = 1 << P

    def fixed(x: float) -> int:
        num, den = x.as_integer_ratio()
        return (num << P) // den

    def mul(ax, ay, bx, by):
        return (ax * bx - ay * by) >> P, (ax * by + ay * bx) >> P

    def power(x, y, e):
        """(x + iy)^e for e >= 1, by binary powering."""
        rx = ry = None
        while True:
            if e & 1:
                rx, ry = (x, y) if rx is None else mul(rx, ry, x, y)
            e >>= 1
            if not e:
                return rx, ry
            x, y = (x * x - y * y) >> P, (x * y) >> (P - 1)

    finite = np.isfinite(seeds)
    start = np.where(finite, seeds, 0).tolist()
    X = np.array([fixed(z.real) for z in start], dtype=object)
    Y = np.array([fixed(z.imag) for z in start], dtype=object)
    cx, cy = fixed(c.real), fixed(c.imag)
    tol2 = (one // 10 ** (DPS - 8)) ** 2          # |delta| < 10^(8-DPS)
    escape2 = one * one * (cx * cx + cy * cy)     # |w| >= 2^P |c|
    steps = np.zeros(len(seeds), dtype=int)
    settled = np.zeros(len(seeds), dtype=bool)
    live = np.flatnonzero(finite)
    for step in range(1, MAX_CYCLES + 1):
        if not live.size:
            break
        x, y = X[live], Y[live]
        wx, wy, dx, dy = x, y, one, 0
        escaped = np.zeros(live.size, dtype=bool)
        for _ in range(k):
            px, py = power(wx, wy, d - 1)
            dx, dy = mul(px, py, dx, dy)
            dx, dy = d * dx, d * dy
            wx, wy = mul(px, py, wx, wy)
            wx, wy = wx + cx, wy + cy
            out = wx * wx + wy * wy >= escape2
            if out.any():
                escaped |= out
                for a in (wx, wy, dx, dy):
                    a[out] = 0
        nx, ny, ex = wx - x, wy - y, dx - one
        norm = ex * ex + dy * dy
        sx = ((nx * ex + ny * dy) << P) // norm
        sy = ((ny * ex - nx * dy) << P) // norm
        kept = ~escaped
        live, sx, sy = live[kept], sx[kept], sy[kept]
        X[live], Y[live] = x[kept] - sx, y[kept] - sy
        steps[live] = step
        done = sx * sx + sy * sy < tol2
        settled[live[done]] = True
        live = live[~done]
    points = [mpc(mpf((int(a), -P)), mpf((int(b), -P))) if ok else mpc(z)
              for a, b, ok, z in zip(X, Y, finite, seeds.tolist())]
    return points, steps.tolist(), settled


def _solve(
    m: UnicriticalMap, codes: np.ndarray, k: int, radius: float
) -> tuple[list[mpc], np.ndarray, np.ndarray, list[int]]:
    """Periodic points of the length-k words whose base-d codes (symbols
    0..d-1, most significant first) are `codes`.

    Returns each word's point, its residual |f^k(z) - z| and whether it
    converged: its representative's Newton step fell below the displacement
    tolerance, the residual is within RESIDUAL_TOL, and the orbit follows the
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

    roots = _roots_of_unity(d)
    seeds = np.zeros(n, dtype=complex)
    for _ in range(MAX_CYCLES):
        prev = seeds
        for j in range(k - 1, -1, -1):
            seeds = principal_root(_snap_f64(seeds - c64), d) * roots[branches[:, j]]
        if np.abs(seeds - prev).max() < 1e-13:
            break

    points: list[list[mpc]] = []
    residuals = np.empty((n, k))
    orbits = np.empty((n, 2 * k), dtype=complex)
    # |f'| <= d R^(d-1) on the disk, so k forward steps lose at most guard digits
    guard = math.ceil(k * (math.log10(d) + (d - 1) * math.log10(radius)))
    with workdps(DPS + guard):
        polished, steps, settled = _polish(seeds, c64, d, k)
        c = mpc(m.c)
        # a polished point whose imaginary part is this small against its
        # modulus is taken as real, so real periodic points stay exactly real
        snap = mpf(10) ** (10 - DPS)
        for i, z in enumerate(polished):
            if abs(z.imag) <= snap * abs(z):
                z = mpc(z.real, 0)
            orbit = [z]
            for _ in range(2 * k - 1):
                orbit.append(orbit[-1] ** d + c)
            orbits[i] = [complex(w) for w in orbit]
            residuals[i] = [float(abs(orbit[t + k] - orbit[t])) for t in range(k)]
            points.append(orbit[:k])
    residuals[~np.isfinite(seeds)] = np.inf

    # z_j lies in the sector of its symbol exactly when it is the branch root
    # of z_(j+1) - c that the symbol picks, under the seed's tie snap;
    # misses[:, j] counts the failures among z_0 .. z_(j-1), so a word at
    # offset t follows its sectors when none of z_t .. z_(t+k-1) fails.
    picked = nearest_branch(principal_root(_snap_f64(orbits[:, 1:] - c64), d), orbits[:, :-1], d)
    misses = np.zeros((n, 2 * k), dtype=int)
    np.cumsum(picked != branches[:, np.arange(2 * k - 1) % k], axis=1, out=misses[:, 1:])
    follows = misses[word_rep, offset + k] == misses[word_rep, offset]
    word_residuals = residuals[word_rep, offset]
    converged = settled[word_rep] & follows & (word_residuals <= RESIDUAL_TOL)
    word_points = [points[r][t] for r, t in zip(word_rep.tolist(), offset.tolist())]
    return word_points, word_residuals, converged, steps


def itinerary_point(m: UnicriticalMap, word, *, radius: float) -> ItineraryResult:
    """The periodic point whose orbit follows the cyclic branch word.

    The composed inverse branches g_{a1} o ... o g_{ak} seed the point, and
    Newton steps on f^k(z) - z polish it; the point then satisfies
    f^k(z) = z with the word as the sector itinerary of its orbit.
    """
    word = tuple(word)
    if not word:
        raise ValueError("itinerary word must be non-empty")
    if not all(_is_integer(a) and 1 <= a <= m.d for a in word):
        raise ValueError(f"word symbols must be integers in 1..{m.d}: {word}")
    word = tuple(int(a) for a in word)
    _require_hypothesis(m, radius)
    code = sum((a - 1) * m.d**j for j, a in enumerate(reversed(word)))
    points, residuals, converged, steps = _solve(   # object: exact past 64 bits
        m, np.array([code], dtype=object), len(word), radius)
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


def count_periodic(m: UnicriticalMap, k: int, *, radius: float) -> PeriodicPointCount:
    """Count fixed points of f^k by sweeping all d^k itinerary words.

    Returns the d^k points in order of (real, imaginary) part.  Raises
    NonConvergenceError if any word fails to converge to a point whose orbit
    follows it, or if any two points lie within DEDUP_TOL, directly or by a
    chain (the single-linkage sweep that groups landing points): under the
    disk hypothesis distinct words give distinct points, so a broken
    word-point bijection is reported, never merged or counted short.
    Raises ValueError above MAX_ITINERARY_ENTRIES.
    """
    if not _is_integer(k) or k < 1:
        raise ValueError(f"word length must be an integer >= 1, got {k!r}")
    # d^k >= 2^k, so past the limit's bit length d**k need not be computed
    if k > MAX_ITINERARY_ENTRIES.bit_length() or m.d**k * (k + m.d) > MAX_ITINERARY_ENTRIES:
        raise ValueError(
            f"the {m.d}^{k} itineraries of length {k} need more than "
            f"{MAX_ITINERARY_ENTRIES} array entries (about 1 GB); lower k"
        )
    _require_hypothesis(m, radius)
    n = m.d**k
    # word i spells i in base d, most significant symbol first: the order of
    # itertools.product(range(d), repeat=k)
    points, residuals, converged, steps = _solve(m, np.arange(n), k, radius)
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

