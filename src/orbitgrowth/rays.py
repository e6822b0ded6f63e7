"""External-ray tracing and landing classification for z -> z^d + c.

Rays are traced by inward pullback: the whole forward orbit of an angle (a
finite set, since angles are rational) is followed simultaneously level by
level, the sample of angle a at potential R^(1/d^(k+1)) being the preimage of
the angle d*a sample one level up, taken along the branch that continues the
ray.  Near a repelling landing point the pullback contracts, so the terminal
samples cluster at the landing point; the cluster diameter is the reported
convergence residual.

Periodic angles whose rays land at the same boundary point form one landing
class; classes are recovered by tolerance grouping of the landed endpoints.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .circle import Angle, in_one_gap, multiply, orbit, periodic_angles
from .dynamics import UnicriticalMap, escape_radius

TWO_PI = 2.0 * math.pi

# Largest number of ray samples (rays traced times depth + 1) one call may
# hold.  A sample costs about 113 bytes across the pullback arrays and the
# per-ray lists of RayTrace (tracemalloc peak of classify_landing(z^2 - 2) at
# nu = 12 and 14), so the limit keeps a call near 2 GB; it admits nu = 18 at
# the default depth 48.
MAX_RAY_SAMPLES = 18_000_000


def _size_error(what: str, depth: int) -> ValueError:
    return ValueError(
        f"tracing {what} to depth {depth} needs more than {MAX_RAY_SAMPLES} ray "
        f"samples (about 2 GB); lower nu or depth"
    )


@dataclass
class RayConfig:
    """Tracing and grouping knobs; the defaults suit strongly repelling
    landing points (nearly parabolic ones need far more depth)."""

    depth: int = 48
    substeps: int = 8
    landing_tol: float = 1e-9
    newton_tol: float = 1e-12
    max_newton: int = 64
    deriv_tol: float = 1e-6
    grouping_tol: float = 1e-9
    unresolved_frac: float = 0.1
    cluster_size: int = 5

    def __post_init__(self):
        for name in ("landing_tol", "newton_tol", "deriv_tol", "grouping_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.depth < 1 or self.substeps < 1:
            raise ValueError("depth and substeps must be >= 1")


@dataclass
class RayTrace:
    angle: Angle
    points: list[complex]          # one sample per level, escape circle inward
    landing: complex | None
    converged: bool
    residual: float                # terminal cluster diameter
    step_residuals: list[float]    # max pullback residual per level
    hit_critical_pullback: bool = False

    def to_dict(self) -> dict:
        return {
            "angle": str(self.angle),
            "points": [[z.real, z.imag] for z in self.points],
            "landing": None if self.landing is None else [self.landing.real, self.landing.imag],
            "converged": self.converged,
            "residual": self.residual,
            "hit_critical_pullback": self.hit_critical_pullback,
        }


def chebyshev_oracle(theta: Angle | Fraction) -> float:
    """Exact landing point of the theta-ray for z^2 - 2: two times cos(2*pi*theta).

    The map w -> w^2 outside the unit disk is carried to z -> z^2 - 2 outside
    [-2, 2] by z = w + 1/w, which sends e^(2*pi*i*theta) to 2*cos(2*pi*theta);
    this is an independent analytic check for the tracer.
    """
    return 2.0 * math.cos(TWO_PI * float(theta))


def _trace_family(
    m: UnicriticalMap, angles: list[Angle], config: RayConfig
) -> dict[Angle, RayTrace]:
    """Trace all rays of a multiplication-closed family of angles at once."""
    d, c = m.d, complex(m.c)
    index = {a: i for i, a in enumerate(angles)}
    try:
        perm = np.array([index[multiply(a, d)] for a in angles])
    except KeyError as exc:
        raise ValueError(f"angle family not closed under multiplication: {exc}") from None

    n = len(angles)
    s = config.substeps
    depth = config.depth
    logR = math.log(escape_radius(m))
    phase = np.exp(2j * math.pi * np.array([float(a) for a in angles]))
    branch_phases = np.exp(2j * math.pi * np.arange(d) / d)

    # The window holds the last s rings, oldest first.  Ring i (0 <= i <= s)
    # is sublevel i - s, at potential R^(d^((s-i)/s)); sublevels -s..0 sit on
    # or above the escape circle, where the ray is (to first order) the
    # straight angular ray itself.  Sublevel j pulls back sublevel j - s, one
    # level up the ray and the oldest ring in the window, starting from
    # sublevel j - 1, the newest; ring 0 is never read.
    window: deque[np.ndarray] = deque(
        (math.exp(logR * d ** ((s - i) / s)) * phase for i in range(s + 1)), maxlen=s
    )

    samples = np.empty((depth + 1, n), dtype=complex)
    samples[0] = window[-1]
    step_res = np.zeros((depth + 1, n))
    critical_hit = np.zeros(n, dtype=bool)
    level_res = np.zeros(n)

    for j in range(1, depth * s + 1):
        w = window[0][perm]             # sublevel j - s, one level up the ray
        seeds = window[-1]              # sublevel j - 1
        u = w - c
        r = np.abs(u) ** (1.0 / d)
        ang = np.angle(u)
        ang = np.where(ang < 0.0, ang + TWO_PI, ang)
        cand = (r * np.exp(1j * ang / d))[:, None] * branch_phases[None, :]
        pick = np.argmin(np.abs(cand - seeds[:, None]), axis=1)
        z = cand[np.arange(n), pick]

        fz = z**d + c - w
        for _ in range(config.max_newton):
            bad = np.abs(fz) > config.newton_tol
            if not bad.any():
                break
            dfz = d * z ** (d - 1)
            safe = np.where(dfz != 0, dfz, 1.0)
            z = z - np.where(bad & (dfz != 0), fz / safe, 0.0)
            fz = z**d + c - w

        critical_hit |= d * np.abs(z) ** (d - 1) < config.deriv_tol
        level_res = np.maximum(level_res, np.abs(fz))
        window.append(z)
        if j % s == 0:
            level = j // s
            samples[level] = z
            step_res[level] = level_res
            level_res = np.zeros(n)

    tail = min(config.cluster_size, depth + 1)
    finite = np.isfinite(samples).all(axis=0)
    with np.errstate(invalid="ignore"):
        diam = np.where(finite, _diameters(samples[depth + 1 - tail:].T), math.inf)
    ok = finite & (diam <= config.landing_tol) & (step_res.max(axis=0) <= config.newton_tol)
    landings = samples[depth].tolist()
    return {
        a: RayTrace(
            angle=a,
            points=points,
            landing=landing if converged else None,
            converged=converged,
            residual=residual,
            step_residuals=residuals,
            hit_critical_pullback=hit,
        )
        for a, points, landing, converged, residual, residuals, hit in zip(
            angles,
            samples.T.tolist(),
            landings,
            ok.tolist(),
            diam.tolist(),
            step_res.T.tolist(),
            critical_hit.tolist(),
        )
    }


def _diameters(rows: np.ndarray) -> np.ndarray:
    """Diameter of each row of points: the largest |p - q| over pairs in it.

    Pairs are visited as cyclic shifts of the rows, so the work space is
    that of the input rather than one matrix per row.
    """
    out = np.zeros(rows.shape[0])
    for shift in range(1, rows.shape[1] // 2 + 1):
        np.maximum(out, np.abs(rows - np.roll(rows, shift, axis=1)).max(axis=1), out=out)
    return out


def trace_ray(
    m: UnicriticalMap,
    theta: Angle | Fraction | str,
    depth: int | None = None,
    config: RayConfig | None = None,
) -> RayTrace:
    """Trace the external ray at a rational angle and report its landing.

    The forward orbit of theta is traced along the way (it feeds the
    pullback), so preperiodic angles work as well as periodic ones.
    """
    theta = theta if isinstance(theta, Angle) else Angle(Fraction(theta))
    cfg = config or RayConfig()
    if depth is not None:
        cfg = replace(cfg, depth=depth)
    try:
        family = orbit(theta, m.d, limit=MAX_RAY_SAMPLES // (cfg.depth + 1))
    except ValueError:
        raise _size_error(f"the orbit of {theta}", cfg.depth) from None
    return _trace_family(m, family, cfg)[theta]


@dataclass
class LandingClassification:
    """Landing classes of the period-nu angles: angles grouped by endpoint."""

    map: UnicriticalMap
    nu: int
    classes: list[list[Angle]]
    representatives: list[complex]
    unresolved: list[Angle]
    unreliable: bool
    max_class_diameter: float
    traces: dict[Angle, RayTrace] = field(repr=False, default_factory=dict)

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def to_dict(self) -> dict:
        return {
            "d": self.map.d,
            "c": [self.map.c.real, self.map.c.imag],
            "nu": self.nu,
            "classes": [[str(a) for a in cls] for cls in self.classes],
            "representatives": [[z.real, z.imag] for z in self.representatives],
            "unresolved": [str(a) for a in self.unresolved],
            "unreliable": self.unreliable,
            "max_class_diameter": self.max_class_diameter,
        }


def classify_landing(
    m: UnicriticalMap,
    nu: int,
    depth: int | None = None,
    config: RayConfig | None = None,
) -> LandingClassification:
    """Group the angles of period dividing nu by the landing point of their rays.

    Unconverged rays are reported in `unresolved`, never silently dropped;
    the classification is flagged unreliable when too large a fraction fails.
    The class count is a computable lower bound for the number of fixed
    points of the nu-th iterate on the boundary.
    """
    cfg = config or RayConfig()
    if depth is not None:
        cfg = replace(cfg, depth=depth)
    # |d|^nu >= 2^nu, so past the limit's bit length d**nu need not be computed
    if nu > MAX_RAY_SAMPLES.bit_length() or abs(m.d**nu - 1) * (cfg.depth + 1) > MAX_RAY_SAMPLES:
        raise _size_error(f"the period-{nu} angles of z^{m.d} + c", cfg.depth)
    angles = periodic_angles(m.d, nu)
    traces = _trace_family(m, angles, cfg)

    converged = np.array([traces[a].converged for a in angles], dtype=bool)
    landed_idx = np.flatnonzero(converged)
    landed = [angles[i] for i in landed_idx.tolist()]
    unresolved = [a for a, ok in zip(angles, converged.tolist()) if not ok]
    points = np.array([traces[a].landing for a in landed], dtype=complex)
    labels = _single_linkage(points, cfg.grouping_tol)

    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    # labels are least member indices and `landed` is sorted, so each class
    # comes out sorted and the classes come out in order of their least angle
    classes = [[landed[i] for i in members] for members in groups.values()]
    representatives = [traces[cls[0]].landing for cls in classes]
    max_diam = 0.0
    for size in {len(members) for members in groups.values()} - {1}:
        rows = points[[members for members in groups.values() if len(members) == size]]
        max_diam = max(max_diam, float(_diameters(rows).max()))

    # A false merge breaks forward invariance: theta -> d*theta must send each
    # class into a single class.  angles[k] = k/N, so it sends index k to
    # d*k mod N; unresolved images are skipped.
    class_of = np.full(len(angles), -1)
    class_of[landed_idx] = labels
    image_class = class_of[(m.d * landed_idx) % len(angles)]
    mapped = image_class >= 0
    image_of: dict[int, int] = {}
    invariant = all(
        image_of.setdefault(label, image) == image
        for label, image in zip(labels[mapped].tolist(), image_class[mapped].tolist())
    )

    return LandingClassification(
        map=m,
        nu=nu,
        classes=classes,
        representatives=representatives,
        unresolved=unresolved,
        unreliable=len(unresolved) > cfg.unresolved_frac * len(angles) or not invariant,
        max_class_diameter=max_diam,
        traces=traces,
    )


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


def classes_noncrossing(classes: list[list[Angle]]) -> bool:
    """True iff no two classes interleave around the circle.

    On the circle, class B avoids interleaving class A exactly when B fits
    strictly inside a single arc between consecutive points of A, so the
    one-sided containment test decides the symmetric relation.  B fits
    strictly inside a gap when it fits in the closed gap and shares no point
    with A.
    """
    fracs = [[Fraction(x) for x in cls] for cls in classes]
    den = math.lcm(*(x.denominator for cls in fracs for x in cls))
    ticks = [[x.numerator * (den // x.denominator) % den for x in cls] for cls in fracs]
    for i, anchor in enumerate(ticks):
        if len(anchor) < 2:
            continue
        anchor, points = sorted(anchor), set(anchor)
        for j, other in enumerate(ticks):
            if i != j and not (in_one_gap(anchor, other, den)
                               and points.isdisjoint(other)):
                return False
    return True
