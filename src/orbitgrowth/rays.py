"""External-ray tracing and landing classification for z -> z^d + c.

Rays are traced by inward pullback: the whole forward orbit of an angle (a
finite set, since angles are rational) is followed simultaneously level by
level, the sample of angle a at potential R^(1/d^(k+1)) being the preimage of
the angle d*a sample one level up, taken along the branch that continues the
ray.  Near a repelling landing point the pullback contracts, so the terminal
samples cluster at the landing point; the cluster diameter is the reported
convergence residual.

A ray's pullback reads only its image ray's, so a family of many rays and
few levels (a wide family) is traced on every CPU the process may run on,
where processes fork: it is split into parts of whole cycles of
theta -> d*theta, each with the preperiodic angles that flow into it, and each
part but one is pulled back in a forked child.  Every process writes its
rays' rows into output arrays in one shared mapping, so the traces are bit
for bit those of one process.

Periodic angles whose rays land at the same boundary point form one landing
class; classes are recovered by tolerance grouping of the landed endpoints.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import math
import os
import signal
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .circle import Angle, multiply, orbit, periodic_angles
from .dynamics import (UnicriticalMap, _is_integer, _require_int, _roots_of_unity,
                       _single_linkage, escape_radius, nearest_branch, principal_root)

TWO_PI = 2.0 * math.pi

# Largest number of ray samples one call may hold: each ray traced has
# depth + 1 samples and 2 * substeps more in the pullback's level buffers.
# trace_rays keeps every sample, 24 bytes (complex point, float residual),
# and peaks at 34.0 and 33.8 bytes a sample in one process (tracemalloc, the
# period-12 and 14 rays of z^2 - 2, depth 48).  classify_landing keeps 97
# bytes a ray, its last CLUSTER_SIZE samples and its folds, and with the
# angles and grouping peaks at 13.8 bytes a sample and retains 5.9 and 6.1.
# A split trace holds its output in one mapping that its processes share,
# which tracemalloc does not see, and each process adds its rays' working
# buffers (level buffers and branch picks): split in two, the classifying
# parent peaks at 9.5 and 8.2.  So the limit keeps a trace_rays call near
# 600 MB and a classification near 250 MB; it admits nu = 18 at the default
# depth 48 and 8 substeps.
MAX_RAY_SAMPLES = 18_000_000

NEWTON_TOL = 1e-12      # Newton residual that solves a pullback step: float64 rounding
LANDING_TOL = 1e-9      # terminal cluster diameter below which a ray has landed
GROUPING_TOL = 1e-9     # single-linkage radius of the landing classes
MAX_NEWTON = 64         # Newton steps per pullback step; the nearest-root seed needs few
DERIV_TOL = 1e-6        # |f'| below this at a sample flags a critical pullback
UNRESOLVED_FRAC = 0.1   # a larger unresolved fraction makes a classification unreliable
CLUSTER_SIZE = 5        # terminal samples whose diameter is a ray's residual
BLOCK_SAMPLES = 4096    # samples per pullback block, a bound that keeps a block in cache


def _ray_budget(config: RayConfig) -> int:
    """Most rays one call may trace under MAX_RAY_SAMPLES."""
    return MAX_RAY_SAMPLES // (config.depth + 1 + 2 * config.substeps)


def _size_error(what: str, config: RayConfig) -> ValueError:
    return ValueError(
        f"tracing {what} to depth {config.depth} at {config.substeps} substeps needs "
        f"more than {MAX_RAY_SAMPLES} ray samples (about 600 MB); lower nu or depth, "
        f"or substeps"
    )


@dataclass(frozen=True)
class RayConfig:
    """The settable tracing values (the module constants fix the rest); the
    defaults suit strongly repelling landing points (nearly parabolic ones
    need far more depth).  Frozen, so a config is validated once and can be
    shared."""

    depth: int = 48
    substeps: int = 8

    def __post_init__(self):
        if not all(_is_integer(n) and n >= 1 for n in (self.depth, self.substeps)):
            raise ValueError("depth and substeps must be >= 1 and integers")
        for name in ("depth", "substeps"):     # a numpy integer's sums wrap round in _ray_budget
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass
class RayTrace:
    angle: Angle
    points: list[complex]          # one sample per level, escape circle inward
    landing: complex | None
    converged: bool
    residual: float                # terminal cluster diameter
    step_residuals: list[float]    # max pullback residual per level
    hit_critical_pullback: bool = False

    def __getattr__(self, name):
        # a classification's trace holds _retrace, its map and config, until
        # points or step_residuals is read: then trace_rays gives its bits
        retrace = self.__dict__.get("_retrace")
        if retrace is None or name not in ("points", "step_residuals"):
            raise AttributeError(f"'RayTrace' object has no attribute {name!r}")
        m, config = retrace
        full = trace_rays(m, [self.angle], config=config)[0]
        self.points, self.step_residuals = full.points, full.step_residuals
        del self._retrace
        return getattr(self, name)

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


def _trace_family(m: UnicriticalMap, angles: list[Angle], config: RayConfig,
                  tail: bool = False) -> _FamilyTraces:
    """Trace all rays of a sorted, multiplication-closed family of angles at
    once; with tail, keep only each ray's last CLUSTER_SIZE samples and folds."""
    d, c = m.d, m.c
    # angle k/lcm is found by bisecting the sorted ticks k, with no Fraction
    # hashed; an Angle's numerator and denominator are read from its slots
    lcm = math.lcm(*{a._denominator for a in angles})
    dtype = np.int64 if lcm <= 2**53 else object    # so k / lcm rounds as float(a) does
    ticks, images = (np.array([a._numerator * (lcm // a._denominator) for a in family], dtype)
                     for family in (angles, [multiply(a, d) for a in angles]))
    perm = np.searchsorted(ticks, images)
    if (np.append(ticks, -1)[perm] != images).any():
        raise ValueError("angle family not sorted or not closed under multiplication")

    n, s, depth = len(angles), config.substeps, config.depth
    logR = math.log(escape_radius(m))
    phase = np.exp(2j * math.pi * (ticks / lcm).astype(float))   # float(a), bit for bit
    radii = np.fromiter((math.exp(logR * d ** ((s - i) / s)) for i in range(1, s + 1)), float, s)

    # Sublevel j pulls back sublevel j - s, one level up the ray, along the
    # branch nearest sublevel j - 1.  So a level needs only the level above,
    # and only the branch pick chains its rows.  chain pulls a level back in
    # blocks of b rows, one set of numpy calls each, whose residuals and |z|
    # fold into per-ray maxima and minima in any order; BLOCK_SAMPLES bounds
    # a block's b * n samples, as larger blocks fall out of cache.  A row's d
    # roots are its principal root times the d roots of unity, and its pick,
    # seeded by the row before, writes its root into the row.  A block that
    # fails NEWTON_TOL is polished by Newton's method, and from the first
    # pick a polished seed changes, its rows are pulled back again.
    #
    # A narrow family's picks seldom change from one level to the next (on
    # the colanding trace, at 2 of 3,200 levels), nor do its levels often
    # need Newton.  So after a level is chained, the levels below it are
    # speculated, unpolished, into a ring of level buffers: each is its
    # principal roots, kept beside it, times the roots the chained level
    # picked.  A chunk of at most bound levels is checked by one
    # nearest_branch call, which picks each row again from the row before it
    # in the ring (row 0 from the level above's last): chain's seeds.  The
    # bound holds a chunk to BLOCK_SAMPLES samples and, at d distances a
    # sample, 8 * BLOCK_SAMPLES distances, a cap measured: speculating ran
    # 1.2-1.5 times faster than chaining at d = 3 and 5 (242 and 124 rays),
    # chaining 1.6 times faster than chunks of 5 levels at d = 100 (99 rays),
    # and the cap first binds at d = 9.  Where every pick of a level matches,
    # each sample is chain's product, and one set of numpy calls forms the
    # residuals by chain's operations, so a level that meets NEWTON_TOL is
    # chain's level bit for bit.  The levels before the first wrong pick or
    # failing residual are kept; that level is chained from its kept roots,
    # and chunks of 1, 2, 4, ... levels follow it, so the levels pulled back
    # and not kept are at most those kept.  A wide family, bound < 2, chains
    # every level, and reads a chained level's picks only within a block.
    # The level above level 1 is sublevels 1 - s..0, at potentials
    # R^(d^((s-i)/s)) for i = 1..s, on or above the escape circle, where the
    # ray is (to first order) the straight angular ray.
    #
    # A ray's pullback reads only its image ray's, and every operation acts
    # on each ray's column alone, so any set of rays closed under perm traces
    # to the same bits on its own.  A wide family is split by _parts into
    # unions of whole cycles with their trees, one part a CPU, each part
    # still wide, and each part but the first is traced in a forked child
    # (_run_parts).  Every process writes its rays' columns of one
    # shared mapping that holds the output arrays.  A narrow
    # family is not split: its trace is deep and costs per level, in numpy
    # calls on few samples, which splitting its columns would not shorten.
    def chunk_bound(rays):
        return min(BLOCK_SAMPLES, 8 * BLOCK_SAMPLES // d) // max(s * rays, 1)

    def wide(rays):
        return chunk_bound(rays) < 2

    # one part a CPU, where processes fork
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = _parts(perm, cpus, wide) if cpus > 1 and hasattr(os, "fork") and wide(n) else []
    # the last levels' samples and step residuals, then a ray each its least
    # |z|, its largest step residual and whether all its samples are finite
    levels, res_levels = (min(CLUSTER_SIZE, depth + 1), 0) if tail else (depth + 1,) * 2
    offset = 16 * levels * n + 8 * res_levels * n
    if len(parts) > 1:
        # imported here, as its extension module adds 0.1 MB of peak RSS
        # to every process, most of which never split a trace
        import mmap
        output = mmap.mmap(-1, offset + 17 * n)     # zero-filled, shared with forked children
    else:
        output = np.zeros(offset + 17 * n, dtype=np.uint8)
    samples = np.frombuffer(output, complex, levels * n).reshape(levels, n)
    step_res = np.frombuffer(output, float, res_levels * n, 16 * levels * n).reshape(res_levels, n)
    min_abs, max_res = np.frombuffer(output, float, 2 * n, offset).reshape(2, n)
    finite = np.frombuffer(output, bool, n, offset + 16 * n)

    def pull_back(cols, perm, phase):
        """Trace the rays cols, closed under perm (which maps local indices),
        into their columns of the output arrays."""
        n = len(phase)
        b = max(1, min(s, BLOCK_SAMPLES // max(n, 1)))
        bound = chunk_bound(n)
        ring = np.empty((bound + 2, s, n), dtype=complex)   # the level above at row 0 or 1, a chunk
        heads = np.empty((bound, s, n), dtype=complex)     # principal roots
        picks = np.empty((s if bound > 1 else b, n), dtype=np.int32)    # the last chained level's
        least, worst, whole = np.full(n, math.inf), np.zeros(n), np.ones(n, dtype=bool)

        def keep(level, z, res):
            """Record the levels from level on, a row each, their last sublevels
            z and largest residuals res: in the folds, and in the levels kept."""
            np.logical_and(whole, np.isfinite(z).all(axis=0), out=whole)
            np.maximum(worst, res.max(axis=0, initial=0.0), out=worst)
            for out, rows in ((samples, z), (step_res, res)):
                first = depth + 1 - len(out)        # the level of out's row 0
                skip = max(first - level, 0)
                if skip < len(rows):
                    out[level + skip - first:level + len(rows) - first, cols] = rows[skip:]

        np.multiply(radii[:, None], phase, out=ring[0])
        keep(0, ring[0, -1:], np.zeros((1, n)))

        def chain(level, prev, cur, p=None):
            """Pull level back from prev into cur, polished, and record its
            picks; p, if given, holds the level's principal roots."""
            seeds, k, res = prev[-1], 0, np.zeros(n)    # sublevel j - 1 for the level's first row
            while k < s:
                w = prev[k:k + b, perm]     # sublevels j - s, one level up the ray
                z = cur[k:k + b]
                q = principal_root(w - c, d) if p is None else p[k:k + b]
                block = picks[k:] if bound > 1 else picks
                for i in range(len(w)):
                    block[i] = nearest_branch(q[i], seeds, d, out=z[i])
                    seeds = z[i]
                for step in range(MAX_NEWTON + 1):
                    fz = z**d
                    abs_fz = np.abs(np.subtract(np.add(fz, c, out=fz), w, out=fz))   # z^d + c - w
                    bad = abs_fz > NEWTON_TOL
                    if step == MAX_NEWTON or not bad.any():
                        break
                    dfz = d * z ** (d - 1)
                    safe = np.where(dfz != 0, dfz, 1.0)
                    z -= np.where(bad & (dfz != 0), fz / safe, 0.0)
                taken = len(w)
                if step and taken > 1:
                    # the picks were seeded with unpolished rows: from the first
                    # pick a polished seed changes, the rows are pulled back again
                    again = (nearest_branch(q[1:], z[:-1], d) != block[1:taken]).any(1)
                    taken = 1 + int(again.argmax()) if again.any() else taken
                np.maximum(res, abs_fz[:taken].max(axis=0), out=res)
                # fmin skips NaN, as the comparison with DERIV_TOL does
                np.fmin(least, np.fmin.reduce(np.abs(z[:taken]), axis=0), out=least)
                seeds = z[taken - 1]
                k += taken
            return res

        # size 0: chain the level, from kept if given; ring[top] is the level above
        level, size, kept, top = 1, 0, None, 0
        while level <= depth:
            if not size:
                # rows 0 and 1 take turns, so a wide family copies no level
                res = chain(level, ring[top], ring[1 - top], kept)
                ok, size, top = 1, int(bound > 1), 1 - top
                keep(level, ring[top, -1:], res[None])
            else:
                chunk = min(size, depth + 1 - level)
                r = ring[top:top + chunk + 1]       # the level above, then the chunk's
                branch = _roots_of_unity(d)[picks]
                for i in range(chunk):
                    heads[i] = principal_root(r[i][:, perm] - c, d)
                    np.multiply(heads[i], branch, out=r[i + 1])
                # the sublevels in order, each seeding the next
                seeds = r.reshape((chunk + 1) * s, n)[s - 1:-1].reshape(chunk, s, n)
                wrong = (nearest_branch(heads[:chunk], seeds, d) != picks).any(axis=(1, 2))
                z = r[1:]
                fz = z**d
                abs_fz = np.abs(np.subtract(np.add(fz, c, out=fz), r[:-1][:, :, perm], out=fz))
                fail = wrong | (abs_fz > NEWTON_TOL).any(axis=(1, 2))
                ok = int(fail.argmax()) if fail.any() else chunk    # the levels kept
                keep(level, z[:ok, -1], abs_fz[:ok].max(axis=1))
                np.fmin(least, np.fmin.reduce(np.abs(z[:ok]), axis=(0, 1), initial=math.inf),
                        out=least)
                size, kept = (0, heads[ok]) if ok < chunk else (min(2 * size, bound), None)
                ring[0], top = ring[top + ok], 0    # the last level kept
            level += ok
        min_abs[cols], max_res[cols], finite[cols] = least, worst, whole

    if len(parts) < 2:
        pull_back(slice(None), perm, phase)
    else:
        local = np.empty(n, dtype=np.intp)      # each ray's index in its part
        for cols in parts:
            local[cols] = np.arange(len(cols))
        _run_parts(lambda cols: pull_back(cols, local[perm[cols]], phase[cols]), parts)

    # x -> d x^(d-1) is monotone: this flags the rays with any sample flagged
    critical_hit = d * min_abs ** (d - 1) < DERIV_TOL
    with np.errstate(invalid="ignore"):
        diam = np.where(finite, _diameters(samples[-min(CLUSTER_SIZE, depth + 1):].T), math.inf)
    ok = finite & (diam <= LANDING_TOL) & (max_res <= NEWTON_TOL)
    return _FamilyTraces(angles, lcm, ticks, perm, samples, step_res, ok, diam, critical_hit,
                         (m, config) if tail else None)


def _parts(perm: np.ndarray, count: int, wide) -> list[np.ndarray]:
    """Split the indices of perm into at most count parts, each a union of
    whole components of the graph i -> perm[i] (a cycle and the trees that
    flow into it), so each part is closed under perm.  The components go
    largest first to the part with the fewest indices, so the parts' sizes
    differ by at most one component.  Fewer parts are made where there are
    fewer components, or where a part's size fails wide; one part is
    np.arange(len(perm)).  Each part lists its indices in order."""
    n = len(perm)
    # pointer doubling: after k rounds jump[i] is perm^(2^k)(i) and least[i]
    # the least of i, perm(i), ..., perm^(2^k - 1)(i); once 2^k > n, jump[i]
    # lies on i's cycle and least[jump[i]] is the least index round it
    jump, least = perm, np.arange(n)
    for _ in range(n.bit_length()):
        least, jump = np.minimum(least, least[jump]), jump[jump]
    label = least[jump]
    sizes = np.bincount(label, minlength=n)
    comps = np.flatnonzero(sizes)
    comps = comps[np.argsort(-sizes[comps], kind="stable")].tolist()
    for count in range(min(count, len(comps)), 1, -1):
        loads, part_of = [0] * count, np.empty(n, dtype=np.intp)
        for comp in comps:
            k = loads.index(min(loads))
            part_of[comp] = k
            loads[k] += int(sizes[comp])
        if all(map(wide, loads)):
            part_of = part_of[label]
            return [np.flatnonzero(part_of == k) for k in range(count)]
    return [np.arange(n)]


def _run_parts(trace, parts: list[np.ndarray]) -> None:
    """trace(part) for each part: the first here, each other in a forked
    child, whose writes the caller shares through a shared mapping.  A part
    whose fork fails, or whose child exits nonzero or dies, is traced here
    instead, so the result never depends on a child.

    The child runs only trace, with the cyclic garbage collector off, and
    leaves by os._exit, so it runs no atexit handler or finalizer and
    flushes no stdio buffer it inherited.  It is safe although the parent
    may hold threads (Python 3.12 warns "This process is multi-threaded, use
    of fork() may lead to deadlocks in the child"): the pullback calls only
    numpy ufuncs and indexing, no BLAS, and takes no lock.  Every child is
    reaped before this returns; on an exception here, such as
    KeyboardInterrupt, the children left are killed first."""
    children, mine = {}, [parts[0]]
    try:
        for part in parts[1:]:
            try:
                pid = os.fork()
            except OSError:
                mine.append(part)
                continue
            if pid == 0:
                code = 1
                try:
                    gc.disable()    # so no finalizer of the parent's garbage runs here
                    trace(part)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = part
        for part in mine:
            trace(part)
        for pid in list(children):
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:       # reaped elsewhere, as under SIGCHLD ignored
                status = 1
            part = children.pop(pid)
            if status:
                trace(part)
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class _FamilyTraces(Mapping):
    """A traced family as its arrays, one column per ray, in the family's
    angle order; perm[i] is the index of the image of angle i under
    theta -> d theta.  Looking up an angle builds its RayTrace from its
    column, afresh on each lookup, so the samples stay in the arrays and not
    in per-ray lists of boxed numbers.  A family that kept only its tails
    holds retrace, its map and config, for its traces' points."""

    def __init__(self, angles, lcm, ticks, perm, samples, step_res, ok, diam, critical_hit,
                 retrace=None):
        self.angles, self.lcm, self.ticks, self.perm = angles, lcm, ticks, perm
        self.samples, self.retrace = samples, retrace
        self.step_res, self.ok, self.diam, self.critical_hit = step_res, ok, diam, critical_hit

    def __getitem__(self, angle: Angle | Fraction) -> RayTrace:
        # any number equal to a member finds it; a string, which Fraction parses, does not
        try:
            q = angle if isinstance(angle, Fraction) else Fraction(angle)
            tick, rest = divmod(q.numerator * self.lcm, q.denominator)
            i = int(self.ticks.searchsorted(tick))
        except (TypeError, ValueError, OverflowError):
            raise KeyError(angle) from None
        if rest or i == len(self.ticks) or self.ticks[i] != tick or isinstance(angle, str):
            raise KeyError(angle)
        converged = bool(self.ok[i])
        fields = dict(
            angle=self.angles[i],
            landing=complex(self.samples[-1, i]) if converged else None,
            converged=converged,
            residual=float(self.diam[i]),
            hit_critical_pullback=bool(self.critical_hit[i]),
        )
        if self.retrace is None:
            return RayTrace(points=self.samples[:, i].tolist(),
                            step_residuals=self.step_res[:, i].tolist(), **fields)
        trace = object.__new__(RayTrace)
        trace.__dict__.update(fields, _retrace=self.retrace)
        return trace

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
    thetas = [Angle(t) for t in thetas]
    cfg = config or RayConfig()
    budget = _ray_budget(cfg)
    family: set[Angle] = set()
    for theta in thetas:
        if theta in family:     # the family is forward closed
            continue
        try:
            family.update(orbit(theta, m.d, limit=budget))
        except ValueError:
            raise _size_error(f"the orbit of {theta}", cfg) from None
        if len(family) > budget:
            raise _size_error(f"the orbits of {', '.join(map(str, thetas))}", cfg)
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

    It keeps a ray's last CLUSTER_SIZE samples and verdicts, not every
    level's.  `traces` builds each ray's RayTrace from them anew on each
    access: two lookups give equal but not identical objects, and changing
    one changes nothing held here.  Its points and step_residuals are traced
    again on first access, by trace_rays, to the same bits."""

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
    nu = _require_int(nu, "nu", 1)
    # |d|^nu >= 2^nu, so past the limit's bit length d**nu need not be computed
    if nu > MAX_RAY_SAMPLES.bit_length() or abs(m.d**nu - 1) > _ray_budget(cfg):
        raise _size_error(f"the period-{nu} angles of z^{m.d} + c", cfg)
    angles = periodic_angles(m.d, nu)
    traces = _trace_family(m, angles, cfg, tail=True)
    landed_idx = np.flatnonzero(traces.ok)
    unresolved = [angles[i] for i in np.flatnonzero(~traces.ok).tolist()]
    points = traces.samples[-1, landed_idx]
    labels = _single_linkage(points, GROUPING_TOL)

    # labels are least member indices and the angles are sorted, so a stable
    # sort of the labels lists each class sorted, and the classes in order of
    # their least angle; a class starts where the label changes, at its least
    # member, whose point is its representative
    order = np.argsort(labels, kind="stable")
    bounds = np.append(np.flatnonzero(np.diff(labels[order], prepend=-1)), len(order))
    starts, sizes = bounds[:-1], np.diff(bounds)
    members = [angles[i] for i in landed_idx[order].tolist()]
    classes = [members[a:b] for a, b in itertools.pairwise(bounds.tolist())]
    representatives = points[order[starts]].tolist()
    max_diam = 0.0
    for size in set(sizes[sizes > 1].tolist()):    # np.unique would import numpy.ma
        rows = points[order[starts[sizes == size][:, None] + np.arange(size)]]
        max_diam = max(max_diam, float(_diameters(rows).max()))

    # A false merge breaks forward invariance: theta -> d*theta must send each
    # class into a single class; unresolved images are skipped.
    class_of = np.full(len(angles), -1)
    class_of[landed_idx] = labels
    image_class = class_of[traces.perm[landed_idx]]
    mapped = image_class >= 0
    # a class's images all go to its one slot, so they agree iff each reads back
    image_of = np.empty(len(angles), dtype=np.intp)
    image_of[labels[mapped]] = image_class[mapped]
    invariant = bool((image_of[labels[mapped]] == image_class[mapped]).all())

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
