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
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circle import Angle, multiply, orbit, periodic_angles
from .dynamics import UnicriticalMap, _single_linkage, branch_roots, escape_radius

TWO_PI = 2.0 * math.pi

# Largest number of ray samples (rays traced times depth + 1) one call may
# hold.  A family keeps its samples as arrays, 24 bytes a sample (complex
# point and float residual); with the pullback's level buffers and the angles
# a sample costs about 38 bytes at peak and 29 retained (tracemalloc of
# classify_landing(z^2 - 2): peak 38.1 and 37.4 bytes, retained 29.0 and 29.3,
# at nu = 12 and 14), so the limit keeps a call near 700 MB; it admits nu = 18
# at the default depth 48.
MAX_RAY_SAMPLES = 18_000_000

NEWTON_TOL = 1e-12      # Newton residual that solves a pullback step: float64 rounding
MAX_NEWTON = 64         # Newton steps per pullback step; the nearest-root seed needs few
DERIV_TOL = 1e-6        # |f'| below this at a sample flags a critical pullback
UNRESOLVED_FRAC = 0.1   # a larger unresolved fraction makes a classification unreliable
CLUSTER_SIZE = 5        # terminal samples whose diameter is a ray's residual
BLOCK_SAMPLES = 4096    # samples per pullback block, a bound that keeps a block in cache


def _size_error(what: str, depth: int) -> ValueError:
    return ValueError(
        f"tracing {what} to depth {depth} needs more than {MAX_RAY_SAMPLES} ray "
        f"samples (about 700 MB); lower nu or depth"
    )


@dataclass
class RayConfig:
    """The settable tracing and grouping values (the module constants fix the
    rest); the defaults suit strongly repelling landing points (nearly
    parabolic ones need far more depth)."""

    depth: int = 48
    substeps: int = 8
    landing_tol: float = 1e-9
    grouping_tol: float = 1e-9

    def __post_init__(self):
        for name in ("landing_tol", "grouping_tol"):
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


def _trace_family(m: UnicriticalMap, angles: list[Angle], config: RayConfig) -> _FamilyTraces:
    """Trace all rays of a multiplication-closed family of angles at once."""
    d, c = m.d, complex(m.c)
    index = {a: i for i, a in enumerate(angles)}
    try:
        perm = np.array([index[multiply(a, d)] for a in angles])
    except KeyError as exc:
        raise ValueError(f"angle family not closed under multiplication: {exc}") from None

    n, s, depth = len(angles), config.substeps, config.depth
    logR = math.log(escape_radius(m))
    phase = np.exp(2j * math.pi * np.array([float(a) for a in angles]))

    # Sublevel j pulls back sublevel j - s, one level up the ray, along the
    # branch nearest sublevel j - 1.  So a level needs only the level above,
    # all known when it starts, and only the branch pick chains its rows: it
    # is pulled back in blocks of b rows, one set of numpy calls each, whose
    # residuals and |z| fold into per-ray maxima and minima in any order.
    # BLOCK_SAMPLES bounds a block's b * n samples, as larger blocks fall out
    # of cache and run slower.  The level above level 1 is sublevels 1 - s..0,
    # at potentials R^(d^((s-i)/s)) for i = 1..s, on or above the escape
    # circle, where the ray is (to first order) the straight angular ray.
    prev = np.array([math.exp(logR * d ** ((s - i) / s)) * phase for i in range(1, s + 1)])
    cur = np.empty_like(prev)
    b = max(1, min(s, BLOCK_SAMPLES // n))

    samples = np.empty((depth + 1, n), dtype=complex)
    samples[0] = prev[-1]
    step_res = np.zeros((depth + 1, n))
    min_abs = np.full(n, math.inf)
    rows = np.arange(n)

    for level in range(1, depth + 1):
        seeds, k = prev[-1], 0          # sublevel j - 1 for the level's first row
        while k < s:
            w = prev[k:k + b, perm]     # sublevels j - s, one level up the ray
            z = cur[k:k + b]
            cand = branch_roots(w - c, d)
            picks = np.empty(w.shape, dtype=np.intp)
            for i in range(len(w)):
                picks[i] = np.argmin(np.abs(cand[i] - seeds[:, None]), axis=1)
                seeds = z[i] = cand[i, rows, picks[i]]

            fz = z**d + c - w
            abs_fz = np.abs(fz)
            taken = len(w)
            for _ in range(MAX_NEWTON):
                bad = abs_fz > NEWTON_TOL
                if not bad.any():
                    break
                dfz = d * z ** (d - 1)
                safe = np.where(dfz != 0, dfz, 1.0)
                z -= np.where(bad & (dfz != 0), fz / safe, 0.0)
                fz = z**d + c - w
                abs_fz = np.abs(fz)
                # the picks were seeded with unpolished rows: from the first
                # pick a polished seed changes, the rows are pulled back again
                again = (np.argmin(np.abs(cand[1:] - z[:-1, :, None]), axis=2) != picks[1:]).any(1)
                taken = 1 + int(again.argmax()) if again.any() else len(w)
            np.maximum(step_res[level], abs_fz[:taken].max(axis=0), out=step_res[level])
            # fmin skips NaN, as the comparison with DERIV_TOL does
            np.fmin(min_abs, np.fmin.reduce(np.abs(z[:taken]), axis=0), out=min_abs)
            seeds = z[taken - 1]
            k += taken

        samples[level] = cur[-1]
        prev, cur = cur, prev

    del prev, cur
    # x -> d x^(d-1) is monotone: this flags the rays with any sample flagged
    critical_hit = d * min_abs ** (d - 1) < DERIV_TOL
    tail = min(CLUSTER_SIZE, depth + 1)
    finite = np.isfinite(samples).all(axis=0)
    with np.errstate(invalid="ignore"):
        diam = np.where(finite, _diameters(samples[depth + 1 - tail:].T), math.inf)
    ok = finite & (diam <= config.landing_tol) & (step_res.max(axis=0) <= NEWTON_TOL)
    return _FamilyTraces(angles, index, samples, step_res, ok, diam, critical_hit)


class _FamilyTraces(Mapping):
    """A traced family as its arrays, one column per ray, in the family's
    angle order.  Looking up an angle builds its RayTrace from its column,
    afresh on each lookup, so the samples stay in the arrays and not in
    per-ray lists of boxed numbers."""

    def __init__(self, angles, index, samples, step_res, ok, diam, critical_hit):
        self.angles, self.index, self.samples, self.step_res = angles, index, samples, step_res
        self.ok, self.diam, self.critical_hit = ok, diam, critical_hit

    def __getitem__(self, angle: Angle | Fraction) -> RayTrace:
        i = self.index[angle]
        converged = bool(self.ok[i])
        return RayTrace(
            angle=self.angles[i],
            points=self.samples[:, i].tolist(),
            landing=complex(self.samples[-1, i]) if converged else None,
            converged=converged,
            residual=float(self.diam[i]),
            step_residuals=self.step_res[:, i].tolist(),
            hit_critical_pullback=bool(self.critical_hit[i]),
        )

    def __iter__(self):
        return iter(self.angles)

    def __len__(self) -> int:
        return len(self.angles)


def _diameters(rows: np.ndarray) -> np.ndarray:
    """Diameter of each row of points: the largest |p - q| over pairs in it.

    Pairs are visited as cyclic shifts of the rows, so the work space is
    that of the input rather than one matrix per row.
    """
    out = np.zeros(rows.shape[0])
    for shift in range(1, rows.shape[1] // 2 + 1):
        np.maximum(out, np.abs(rows - np.roll(rows, shift, axis=1)).max(axis=1), out=out)
    return out


def trace_rays(
    m: UnicriticalMap,
    thetas: list[Angle | Fraction | str],
    *,
    config: RayConfig | None = None,
) -> list[RayTrace]:
    """Trace the external rays at rational angles: one trace per angle, in
    order.  The union of their forward orbits (which feed the pullback, so
    preperiodic angles work too) is traced once, as one family.
    """
    thetas = [t if isinstance(t, Angle) else Angle(Fraction(t)) for t in thetas]
    cfg = config or RayConfig()
    family: set[Angle] = set()
    for theta in thetas:
        if theta in family:     # the family is forward closed
            continue
        try:
            family.update(orbit(theta, m.d, limit=MAX_RAY_SAMPLES // (cfg.depth + 1)))
        except ValueError:
            raise _size_error(f"the orbit of {theta}", cfg.depth) from None
        if len(family) * (cfg.depth + 1) > MAX_RAY_SAMPLES:
            raise _size_error(f"the orbits of {', '.join(map(str, thetas))}", cfg.depth)
    traces = _trace_family(m, sorted(family), cfg)
    return [traces[theta] for theta in thetas]


def trace_ray(
    m: UnicriticalMap,
    theta: Angle | Fraction | str,
    *,
    config: RayConfig | None = None,
) -> RayTrace:
    """Trace the external ray at a rational angle: trace_rays with one angle."""
    return trace_rays(m, [theta], config=config)[0]


@dataclass
class LandingClassification:
    """Landing classes of the period-nu angles: angles grouped by endpoint.

    `traces` reads each ray's RayTrace from the family's arrays, built anew on
    each access: two lookups give equal but not identical objects, and
    changing one changes nothing held here."""

    map: UnicriticalMap
    nu: int
    classes: list[list[Angle]]
    representatives: list[complex]
    unresolved: list[Angle]
    unreliable: bool
    max_class_diameter: float
    traces: Mapping[Angle, RayTrace] = field(repr=False, default_factory=dict)

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
    *,
    config: RayConfig | None = None,
) -> LandingClassification:
    """Group the angles of period dividing nu by the landing point of their rays.

    Unconverged rays are reported in `unresolved`, never silently dropped;
    the classification is flagged unreliable when too large a fraction fails.
    The class count is a computable lower bound for the number of fixed
    points of the nu-th iterate on the boundary.
    """
    cfg = config or RayConfig()
    # |d|^nu >= 2^nu, so past the limit's bit length d**nu need not be computed
    if nu > MAX_RAY_SAMPLES.bit_length() or abs(m.d**nu - 1) * (cfg.depth + 1) > MAX_RAY_SAMPLES:
        raise _size_error(f"the period-{nu} angles of z^{m.d} + c", cfg.depth)
    angles = periodic_angles(m.d, nu)
    traces = _trace_family(m, angles, cfg)
    landed_idx = np.flatnonzero(traces.ok)
    landed = [angles[i] for i in landed_idx.tolist()]
    unresolved = [a for a, ok in zip(angles, traces.ok.tolist()) if not ok]
    points = traces.samples[-1, landed_idx]
    labels = _single_linkage(points, cfg.grouping_tol)

    groups: dict[int, list[int]] = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    # labels are least member indices and `landed` is sorted, so each class
    # comes out sorted and the classes come out in order of their least angle
    classes = [[landed[i] for i in members] for members in groups.values()]
    representatives = points[[members[0] for members in groups.values()]].tolist()
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
        unreliable=len(unresolved) > UNRESOLVED_FRAC * len(angles) or not invariant,
        max_class_diameter=max_diam,
        traces=traces,
    )


def classes_noncrossing(classes: list[list[Angle]]) -> bool:
    """True iff no two classes interleave around the circle.

    Each class of two or more angles must hold every other class strictly
    inside one of its gaps.  So an angle of a class with two or more distinct
    angles belongs to no other class, and no two such classes interleave;
    singletons never cross each other.  Interleaving is decided by one sweep
    over the sorted angles with a stack of open classes: each angle of an
    open class must belong to the class on top, and a class closes at its
    last angle.
    """
    fracs = [[Fraction(x) for x in cls] for cls in classes]
    den = math.lcm(*(x.denominator for cls in fracs for x in cls))
    ticks = [{x.numerator * (den // x.denominator) % den for x in cls} for cls in fracs]
    # a class listing one angle twice has that angle as its only gap, which
    # holds no other nonempty class
    if any(len(t) == 1 < len(cls) for t, cls in zip(ticks, classes)) and sum(map(bool, ticks)) > 1:
        return False
    big = [t for t in ticks if len(t) >= 2]
    owners = Counter(x for t in ticks for x in t)
    if any(owners[x] > 1 for t in big for x in t):
        return False
    left = [len(t) for t in big]
    stack: list[int] = []
    for _, i in sorted((x, i) for i, t in enumerate(big) for x in t):
        if left[i] == len(big[i]):
            stack.append(i)
        elif stack[-1] != i:
            return False
        left[i] -= 1
        if not left[i]:
            stack.pop()
    return True
