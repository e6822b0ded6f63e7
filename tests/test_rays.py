import copy
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import pickle
import random
import signal
import time
import tracemalloc
import typing
from collections import deque
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitgrowth import (
    Angle,
    RayConfig,
    UnicriticalMap,
    chebyshev_oracle,
    classes_noncrossing,
    classify_landing,
    multiply,
    periodic_angles,
    trace_ray,
    trace_rays,
)
from orbitgrowth import rays
from orbitgrowth.circle import in_one_gap, orbit
from orbitgrowth.dynamics import _roots_of_unity, _single_linkage, escape_radius
from test_dynamics import reference_branch_roots

CHEB = UnicriticalMap(2, -2 + 0j)
CUBIC = UnicriticalMap(3, 0.3 + 0.5j)
RABBIT = UnicriticalMap(2, -0.12256116687665362 + 0.7448617666197442j)


def visible_cpus(monkeypatch, count):
    """Show the trace count CPUs: a wide family is split into as many parts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    """One CPU visible, so a wide family is traced in this process: spies on
    principal_root and nearest_branch count every call, and tracemalloc sees
    the output arrays, which a split trace holds in a shared mmap."""
    visible_cpus(monkeypatch, 1)


def trace_fields(t):
    return (str(t.angle), t.points, t.step_residuals, t.landing, t.residual,
            t.converged, t.hit_critical_pullback)


def trace_bits(t):
    """Every field of a trace, its sample and residual lists as the bit
    patterns of their floats: equal bits mean equal reprs."""
    return (repr(t.angle), repr(t.landing), repr(t.residual), t.converged,
            t.hit_critical_pullback, np.array(t.points).tobytes(),
            np.array(t.step_residuals).tobytes())


def traces_digest(traces):
    """sha256 over every field of each trace; repr round-trips floats, so
    equal digests mean bit-identical traces."""
    h = hashlib.sha256()
    for t in traces:
        h.update(repr(trace_fields(t)).encode())
    return h.hexdigest()


def reference_noncrossing(classes):
    """The former all-pairs test: every class of two or more angles must hold
    each other class strictly inside one of its gaps."""
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


def reference_trace_family(m, angles, config, min_abs_out=None, picks_out=None):
    """The former pullback, one sublevel per step over a window of the last s
    rings; the module's constants are read at call time.  min_abs_out, if
    given, receives each ray's least |z| over all its sublevels, and the
    list picks_out, if given, each sublevel's branch picks."""
    d, c = m.d, complex(m.c)
    index = {a: i for i, a in enumerate(angles)}
    try:
        perm = np.array([index[multiply(a, d)] for a in angles], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"angle family not closed under multiplication: {exc}") from None

    n = len(angles)
    s = config.substeps
    depth = config.depth
    logR = math.log(escape_radius(m))
    phase = np.exp(2j * math.pi * np.array([float(a) for a in angles]))

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
    min_abs = np.full(n, math.inf)
    rows = np.arange(n)

    for j in range(1, depth * s + 1):
        w = window[0][perm]             # sublevel j - s, one level up the ray
        seeds = window[-1]              # sublevel j - 1
        cand = reference_branch_roots(w - c, d)
        pick = np.argmin(np.abs(cand - seeds[:, None]), axis=1)
        z = cand[rows, pick]
        if picks_out is not None:
            picks_out.append(pick)

        fz = z**d + c - w
        abs_fz = np.abs(fz)
        for _ in range(rays.MAX_NEWTON):
            bad = abs_fz > rays.NEWTON_TOL
            if not bad.any():
                break
            dfz = d * z ** (d - 1)
            safe = np.where(dfz != 0, dfz, 1.0)
            z = z - np.where(bad & (dfz != 0), fz / safe, 0.0)
            fz = z**d + c - w
            abs_fz = np.abs(fz)

        # fmin skips NaN, as the comparison with DERIV_TOL does
        np.fmin(min_abs, np.abs(z), out=min_abs)
        level_res = step_res[(j + s - 1) // s]    # the level of sublevel j
        np.maximum(level_res, abs_fz, out=level_res)
        window.append(z)
        if j % s == 0:
            samples[j // s] = z

    if min_abs_out is not None:
        min_abs_out[:] = min_abs
    # x -> d x^(d-1) is monotone: this flags the rays with any sample flagged
    critical_hit = d * min_abs ** (d - 1) < rays.DERIV_TOL
    tail = min(rays.CLUSTER_SIZE, depth + 1)
    finite = np.isfinite(samples).all(axis=0)
    with np.errstate(invalid="ignore"):
        diam = np.where(finite, rays._diameters(samples[depth + 1 - tail:].T), math.inf)
    ok = finite & (diam <= rays.LANDING_TOL) & (step_res.max(axis=0) <= rays.NEWTON_TOL)
    landings = samples[depth].tolist()
    return {
        a: rays.RayTrace(
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


@functools.lru_cache
def closed_family(d, n):
    """n angles closed under multiplication by d: the largest set of periodic
    angles that fits (or the fixed angle 0), then preimages of its angles,
    breadth first."""
    nu = max((k for k in range(1, n.bit_length() + 1) if d**k - 1 <= n), default=None)
    family = periodic_angles(d, nu) if nu else [Angle(0)]
    members = set(family)
    for a in family:                    # grows as preimages are added
        for j in range(d):
            if len(family) == n:
                return tuple(sorted(family))
            p = Angle((Fraction(a) + j) / d)
            if p not in members:
                members.add(p)
                family.append(p)
    return tuple(sorted(family))


# Cantor Julia sets: rays run close to precritical points, where the branch
# pick's seed decides which preimage continues the ray
BLOCK_MAPS = {2: UnicriticalMap(2, 0.3 + 1j), 3: UnicriticalMap(3, 1 + 1j),
              4: UnicriticalMap(4, 1.5 + 0j), 5: UnicriticalMap(5, 3 + 0j)}


# |c| outweighs |z| on every level, so at one substep a later level's largest
# pullback residual can top level 1's; with more substeps level 1 reaches far
# past the escape circle, and its residuals stay the largest
FAR_MAP = UnicriticalMap(5, 30 + 0j)


def root_calls(s, n, depth, redo=(), d=2):
    """principal_root calls of a call that chains again the levels in redo
    (those whose branch picks differ from the level above's, or whose
    residuals fail NEWTON_TOL) and re-pulls no rows.  A wide family chains
    each level in blocks, one call a block.  A narrow family chains level 1,
    then speculates chunks of 1, 2, 4, ... levels, one call a level, of at
    most BLOCK_SAMPLES samples and 8 * BLOCK_SAMPLES distances (d a sample);
    the first level of redo in a chunk is chained again from its kept roots,
    with no call, and the chunks restart at one level after it."""
    bound = min(rays.BLOCK_SAMPLES, 8 * rays.BLOCK_SAMPLES // d) // max(s * n, 1)
    if bound < 2:
        return depth * -(-s // max(1, min(s, rays.BLOCK_SAMPLES // max(n, 1))))
    calls, level, size = 1, 2, 1
    while level <= depth:
        end = level + min(size, depth + 1 - level)
        calls += end - level
        wrong = min([k for k in redo if level <= k < end], default=end)
        level, size = (wrong + 1, 1) if wrong < end else (end, min(2 * size, bound))
    return calls


def pick_changes(picks, s):
    """The levels whose branch picks differ from the level above's in some
    row, from reference_trace_family's picks_out."""
    picks = np.array(picks)
    return sorted({j // s + 2 for j in np.flatnonzero((picks[s:] != picks[:-s]).any(axis=1)).tolist()})


def late_newton_tol(angles, config):
    """A NEWTON_TOL under which FAR_MAP's levels pass up to the one of
    largest residual, and the levels that fail it.  At the default
    tolerance no level of FAR_MAP takes a Newton step, so the reference's
    residuals are the unpolished ones; the tolerance is the largest of the
    levels before the largest."""
    unpolished = reference_trace_family(FAR_MAP, angles, config)
    level_res = np.array([t.step_residuals[1:] for t in unpolished.values()]
                         ).reshape(len(angles), config.depth).max(axis=0, initial=0.0)
    tol = level_res[:level_res.argmax()].max(initial=0.0)
    return tol, (np.flatnonzero(level_res > tol) + 1).tolist()


LATTICES = {q: [Angle(p, q) for p in range(q)] for q in (2, 3, 4, 6, 8, 12, 16, 24)}


def random_classes(rng):
    """A few small classes on mixed lattices: repeated angles, repeated and
    empty classes, singletons and shared angles all occur."""
    pool = [a for q in rng.sample(sorted(LATTICES), rng.randint(1, 3)) for a in LATTICES[q]]
    classes = [[rng.choice(pool) for _ in range(rng.choice((0, 1, 1, 2, 2, 2, 3, 3, 4)))]
               for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.1:
        classes.append(list(rng.choice(classes)))
    return classes


class TestChebyshevOracle:
    @pytest.mark.parametrize(
        "theta,expected",
        [((0, 1), 2.0), ((1, 2), -2.0), ((1, 4), 0.0), ((1, 3), -1.0)],
    )
    def test_values(self, theta, expected):
        assert chebyshev_oracle(Angle(*theta)) == pytest.approx(expected, abs=1e-12)


class TestTraceRay:
    def test_one_third_lands_at_minus_one(self):
        t = trace_ray(CHEB, Angle(1, 3))
        assert t.converged
        assert abs(t.landing - (-1.0)) < 1e-6

    def test_zero_ray_lands_at_beta(self):
        t = trace_ray(CHEB, Angle(0))
        assert t.converged
        assert abs(t.landing - 2.0) < 1e-9

    def test_preperiodic_ray(self):
        t = trace_ray(CHEB, Angle(1, 2))
        assert t.converged
        assert abs(t.landing - (-2.0)) < 1e-9

    def test_critical_landing_flagged(self):
        # the 1/4-ray of z^2-2 lands at the critical point 0 itself; the
        # square-root branch point caps float64 accuracy near sqrt(eps)
        t = trace_ray(CHEB, Angle(1, 4))
        assert t.converged
        assert abs(t.landing - 0.0) < 1e-7
        assert t.hit_critical_pullback

    def test_points_run_inward(self):
        t = trace_ray(CHEB, Angle(1, 3), config=RayConfig(depth=20))
        assert len(t.points) == 21
        assert abs(t.points[0]) == pytest.approx(4.0)
        mods = [abs(z) for z in t.points]
        assert mods[0] >= mods[1] >= mods[-1]

    def test_pullback_relation_recorded(self):
        t = trace_ray(CHEB, Angle(1, 3))
        assert max(t.step_residuals) <= 1e-12

    def test_pullback_relation_across_angles(self):
        # applying f to a level-(k+1) sample of theta gives the level-k
        # sample of d*theta
        cls = classify_landing(CHEB, 3)
        for a, t in cls.traces.items():
            image = cls.traces[multiply(a, 2)]
            for k in range(len(t.points) - 1):
                assert abs(CHEB(t.points[k + 1]) - image.points[k]) <= 1e-10

    def test_string_angle_accepted(self):
        assert trace_ray(CHEB, "1/3").converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RayConfig(depth=0)
        # a float depth was accepted, and tracing then failed inside numpy
        # with a TypeError; numpy integers stay accepted, and are kept as ints
        for value in (2.5, 2.0):
            with pytest.raises(ValueError, match="depth must be an integer >= 1"):
                RayConfig(depth=value)
        depth = RayConfig(depth=np.int64(3)).depth
        assert depth == 3 and type(depth) is int

    def test_numpy_config_meets_the_size_guard(self):
        # depth + 1 + 2 * substeps wrapped round in int64, so the size guard
        # passed and numpy failed with "array is too big"
        config = RayConfig(depth=np.int64(2**63 - 1))
        with pytest.raises(ValueError, match="ray samples"):
            trace_ray(CHEB, "1/3", config=config)

    def test_config_is_frozen(self):
        # an assignment after construction would skip the checks above
        config = RayConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.depth = 0
        assert config.depth == 48

    def test_bool_depth_rejected(self):
        with pytest.raises(ValueError, match="depth must be an integer >= 1"):
            RayConfig(depth=True)

    def test_config_fields_are_the_settable_values(self):
        names = [f.name for f in dataclasses.fields(RayConfig)]
        assert names == ["depth"]

    def test_substeps_is_a_constant_not_a_field(self):
        # every trace pulls a level back in the same number of sublevels
        assert RayConfig.substeps == RayConfig().substeps == 8
        assert typing.get_type_hints(RayConfig)["substeps"] == typing.ClassVar[int]
        with pytest.raises(TypeError):
            RayConfig(substeps=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            RayConfig().substeps = 4

    @pytest.mark.parametrize("fn", [trace_rays, trace_ray, classify_landing])
    def test_depth_is_set_only_through_config(self, fn):
        params = inspect.signature(fn).parameters
        assert "depth" not in params
        assert params["config"].kind is inspect.Parameter.KEYWORD_ONLY

    def test_to_dict_shape(self):
        d = trace_ray(CHEB, Angle(1, 3)).to_dict()
        assert d["angle"] == "1/3"
        assert d["converged"] is True
        assert len(d["points"]) == 49
        assert len(d["landing"]) == 2

    def test_long_orbit_rejected_before_it_is_built(self):
        # 2 has order 41,666,664 modulo this prime, so the orbit alone would
        # exceed the sample limit
        start = time.perf_counter()
        with pytest.raises(ValueError, match="orbit of 1/999999937"):
            trace_ray(CHEB, Angle(1, 999999937))
        assert time.perf_counter() - start < 5.0

    def test_excessive_depth_rejected(self):
        with pytest.raises(ValueError, match="lower nu or depth"):
            trace_ray(CHEB, Angle(1, 3), config=RayConfig(depth=10**9))

    def test_insufficient_depth_reported_not_converged(self):
        t = trace_ray(CHEB, Angle(1, 3), config=RayConfig(depth=12))
        assert not t.converged
        assert t.landing is None
        assert t.residual > 1e-9


class TestTraceRays:
    @pytest.mark.parametrize("m,thetas", [
        (CHEB, ["2/7", "4/7", "1/7"]),          # one orbit, shuffled
        (CHEB, ["1/3", "1/7"]),                 # separate orbits
        (CHEB, ["1/6", "1/4"]),                 # preperiodic
        (CHEB, ["0/1"]),
        (CHEB, ["1/3", "2/3", "1/3"]),          # a repeated angle
        (CHEB, ["1/4", "1/6", "5/7", "0/1", "1/6", "1/3"]),
        (CUBIC, ["1/8", "1/2", "1/26", "1/6"]),
        (CHEB, []),                             # no angles, once a ZeroDivisionError
    ])
    def test_equals_one_trace_per_angle(self, m, thetas):
        together = trace_rays(m, thetas)
        alone = [trace_ray(m, t) for t in thetas]
        assert [t.angle for t in together] == [Angle(Fraction(t)) for t in thetas]
        assert [trace_fields(t) for t in together] == [trace_fields(t) for t in alone]

    def test_ticks_past_float64_precision(self):
        # 2^61 - 1 is prime and 2 has order 61 modulo it: no float64 holds the
        # family's lattice size exactly, so its ticks stay Python ints
        angles = sorted(orbit(Angle(1, 2**61 - 1), 2))
        config = RayConfig(depth=8)
        expected = reference_trace_family(CHEB, angles, config)
        traced = rays._trace_family(CHEB, angles, config)
        assert len(angles) == 61 and traced.ticks.dtype == object
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    @pytest.mark.parametrize("angles", [
        [Angle(1, 3)],                          # 2/3 is missing
        [Angle(2, 3), Angle(1, 3)],             # closed, but not sorted
    ])
    def test_family_must_be_sorted_and_closed(self, angles):
        with pytest.raises(ValueError, match="not sorted or not closed"):
            rays._trace_family(CHEB, angles, RayConfig(depth=4))

    def test_golden_digest(self):
        # recorded from trace_ray, one angle at a time
        traces = trace_rays(CHEB, ["1/6", "1/4", "1/3", "1/6"])
        assert traces_digest(traces) == (
            "57f3b69fe164426e3af72802b2824ba6ecdd155a09f56f2b37a78a81b0748cb6"
        )

    def test_union_traced_once(self, monkeypatch):
        families = []
        trace_family = rays._trace_family

        def spy(m, angles, config):
            families.append(angles)
            return trace_family(m, angles, config)

        monkeypatch.setattr(rays, "_trace_family", spy)
        trace_rays(CHEB, ["4/7", "1/6", "2/7", "1/7"])
        assert families == [[Angle(p, q) for p, q in
                             ((1, 7), (1, 6), (2, 7), (1, 3), (4, 7), (2, 3))]]

    def test_union_of_orbits_counts_against_the_limit(self):
        # each orbit has 7 angles, within the 17 this depth allows; together 21
        assert [len(orbit(Angle(p, 127), 2)) for p in (1, 3, 5)] == [7, 7, 7]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="orbits of 1/127, 3/127, 5/127"):
            trace_rays(CHEB, ["1/127", "3/127", "5/127"], config=RayConfig(depth=10**6))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("thetas,size", [
        (["1/127", "3/127"], 14),
        (["1/7", "2/7", "4/7", "1/7"], 3),      # overlapping orbits count once
    ])
    def test_union_at_the_limit_accepted(self, monkeypatch, thetas, size):
        traced = []

        def stub(m, angles, config):
            traced.append(angles)
            return {a: a for a in angles}

        monkeypatch.setattr(rays, "_trace_family", stub)
        # a ray holds depth + 1 samples and 2 * substeps in the level buffers
        depth = rays.MAX_RAY_SAMPLES // size - 1 - 2 * RayConfig.substeps
        trace_rays(CHEB, thetas, config=RayConfig(depth=depth))
        assert [len(angles) for angles in traced] == [size]
        with pytest.raises(ValueError, match="lower nu or depth"):
            trace_rays(CHEB, thetas, config=RayConfig(depth=depth + 1))


@pytest.mark.usefixtures("one_cpu")
class TestBlockPullback:
    """The pullback in blocks of sublevels matches the one-sublevel steps of
    reference_trace_family in every field, bit for bit.  One CPU is visible,
    so the call counts are those of the whole trace."""

    @pytest.mark.parametrize("d", sorted(BLOCK_MAPS))
    @pytest.mark.parametrize("substeps", [1, 3, 4, 8])
    @pytest.mark.parametrize("n,depth", [(3, 48), (7, 48), (63, 48), (1023, 16),
                                         (rays.BLOCK_SAMPLES + 5, 8)])
    def test_matches_one_sublevel_steps(self, monkeypatch, d, substeps, n, depth):
        # b = min(s, BLOCK_SAMPLES // n) rows per block: whole levels up to
        # n = 1023, two blocks a level at n = 1023 and s = 8, one row per
        # block past BLOCK_SAMPLES
        angles = list(closed_family(d, n))
        assert len(angles) == n
        monkeypatch.setattr(RayConfig, "substeps", substeps)
        config = RayConfig(depth=depth)
        expected = reference_trace_family(BLOCK_MAPS[d], angles, config)
        traced = rays._trace_family(BLOCK_MAPS[d], angles, config)
        assert list(traced) == list(expected) == angles
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    @pytest.mark.parametrize("d,n,depth", [(2, 1023, 8), (3, 63, 24), (5, 7, 48)])
    def test_matches_when_newton_runs_on_every_block(self, monkeypatch, d, n, depth):
        # no residual meets a zero tolerance, so every block runs Newton and
        # its picks are first seeded with unpolished rows; on z^5 + 3 the
        # polish changes the pick of level 1's row 5, which the block must
        # then make again.  A chained block picks its rows one at a time and
        # checks them once, after its polish: b + 1 nearest_branch calls.
        # The wide family n = 1023 chains each level in two blocks of 4 rows,
        # one principal root each.  The narrow families, n = 63 and n = 7,
        # chain level 1 (one root) and speculate each later level (one
        # root), whose chunk check (one call) fails, so it is chained from
        # its kept roots: 1 + 8 + 1 calls a level.  Level 1 of z^5 + 3 keeps
        # no roots, so its re-pull of rows 5..7 takes one more root, and 3 + 1
        # more nearest_branch calls
        monkeypatch.setattr(rays, "NEWTON_TOL", 0.0)
        angles = list(closed_family(d, n))
        config = RayConfig(depth=depth)
        expected = reference_trace_family(BLOCK_MAPS[d], angles, config)
        calls, picks = [], []
        root, nearest = rays.principal_root, rays.nearest_branch
        monkeypatch.setattr(rays, "principal_root", lambda u, d: calls.append(1) or root(u, d))
        monkeypatch.setattr(rays, "nearest_branch",
                            lambda *args, **kw: picks.append(1) or nearest(*args, **kw))
        traced = rays._trace_family(BLOCK_MAPS[d], angles, config)
        assert len(calls) == {2: 16, 3: 24, 5: 49}[d]
        assert len(picks) == {2: 80, 3: 239, 5: 483}[d]
        assert not any(t.converged for t in expected.values())
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []


    @pytest.mark.parametrize("m,s,n,depth,changes", [
        # picks change at levels 4 and 5: level 1 chained, chunks 2, 3..4
        # (cut at 4, its last), 4 chained, 5 (cut), 5 chained, then chunks
        # of 1, 2, 4, 8, 16 and, cut by the depth, 14 levels
        pytest.param(BLOCK_MAPS[2], 8, 7, 50, [4, 5], id="m0-8-7-50"),
        # s * n = 512: chunks of at most 8 levels
        pytest.param(BLOCK_MAPS[3], 4, 128, 30, [2, 3], id="m1-4-128-30"),
        # s * n = BLOCK_SAMPLES / 2: chunks of 1 and 2 levels
        pytest.param(BLOCK_MAPS[2], 8, 256, 9, [2, 3, 4], id="m2-8-256-9"),
        pytest.param(FAR_MAP, 1, 63, 40, [], id="m3-1-63-40"),
        pytest.param(BLOCK_MAPS[2], 8, 0, 20, [], id="m4-8-0-20"),     # the empty family
    ])
    def test_converging_narrow_call_pulls_each_level_back_once(self, monkeypatch, m, s, n, depth,
                                                               changes):
        # each kept level takes one principal root: a level whose picks
        # change is chained again from its kept roots, and only the
        # speculated levels after it in its chunk are pulled back again.
        # Chunks restart at one level after a chain, so a pick that changes
        # at the first level below a chained one wastes nothing
        angles = list(closed_family(m.d, n)) if n else []
        monkeypatch.setattr(RayConfig, "substeps", s)
        config = RayConfig(depth=depth)
        picks = []
        expected = reference_trace_family(m, angles, config, picks_out=picks)
        calls = []
        root = rays.principal_root
        monkeypatch.setattr(rays, "principal_root", lambda u, d: calls.append(1) or root(u, d))
        traced = rays._trace_family(m, angles, config)
        assert pick_changes(picks, s) == changes
        assert len(calls) == root_calls(s, n, depth, changes, m.d) == depth
        assert list(traced) == list(expected) == angles
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    def test_pick_change_mid_chunk_is_chained_again_from_its_roots(self, monkeypatch):
        # The picks of these three rays change at levels 5 and 6 only.  Level
        # 1 is chained and the chunks run 2, 3..4, 5..8 (cut at 5), then 6
        # (cut at 6), 7, 8..9, 10..13, 14..21, 22..37.  One principal root,
        # of ray 2/7 at level 26, row 3, is turned by a root of unity, in the
        # traced call and in the reference alike: that sample's pick moves
        # down one branch there and moves back at level 27, inside the chunk
        # 22..37 after a run of passing chunks.  Level 26 is chained again
        # from its kept roots, and the levels speculated after it are pulled
        # back again: 3 after level 5, 11 after level 26, and none after
        # levels 6 and 27, each the first of its chunk
        m, angles = UnicriticalMap(2, -0.110 + 0.6557j), [Angle(p, 7) for p in (1, 2, 4)]
        config = RayConfig(depth=40)
        inputs = []
        reference = reference_branch_roots
        monkeypatch.setitem(globals(), "reference_branch_roots",
                            lambda u, d: inputs.append(u) or reference(u, d))
        reference_trace_family(m, angles, config)
        target = inputs[25 * 8 + 3][1]
        assert sum(int((u == target).sum()) for u in inputs) == 1

        root, turn = rays.principal_root, _roots_of_unity(2)[1]
        calls = []

        def turned(u, d):
            return np.where(u == target, root(u, d) * turn, root(u, d))

        monkeypatch.setattr(rays, "principal_root", lambda u, d: calls.append(1) or turned(u, d))
        monkeypatch.setitem(globals(), "reference_branch_roots",
                            lambda u, d: turned(u, d)[..., None] * _roots_of_unity(d))
        picks = []
        expected = reference_trace_family(m, angles, config, picks_out=picks)
        traced = rays._trace_family(m, angles, config)
        assert pick_changes(picks, 8) == [5, 6, 26, 27]
        assert len(calls) == root_calls(8, 3, 40, [5, 6, 26, 27]) == 40 + 3 + 11
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    @pytest.mark.parametrize("n,depth", [
        (3, 6),         # level 5 fails, the first of the chunk 5..6, cut by the depth
        (63, 10),       # level 7 fails inside the chunk 5..8
        (2047, 12),     # s * n just below and at BLOCK_SAMPLES / 2: level 2 fails
        (2048, 12),
        (2049, 12),     # wide, one block a level: verified block by block
        (4095, 12),
        (4096, 12),     # s * n = BLOCK_SAMPLES
        (4097, 12),     # a one-row block past BLOCK_SAMPLES
        (0, 12),        # the empty family: nothing fails
    ])
    def test_matches_when_newton_starts_after_passing_chunks(self, monkeypatch, n, depth):
        angles = list(closed_family(5, n)) if n else []
        monkeypatch.setattr(RayConfig, "substeps", 1)
        config = RayConfig(depth=depth)
        tol, failing = late_newton_tol(angles, config)
        assert n == 0 or failing[0] >= 2

        monkeypatch.setattr(rays, "NEWTON_TOL", tol)
        picks = []
        expected = reference_trace_family(FAR_MAP, angles, config, picks_out=picks)
        calls = []
        root = rays.principal_root
        monkeypatch.setattr(rays, "principal_root", lambda u, d: calls.append(1) or root(u, d))
        traced = rays._trace_family(FAR_MAP, angles, config)
        assert pick_changes(picks, 1) == []
        # each failing level is chained from its kept roots, with Newton,
        # and the levels below it are speculated again
        assert len(calls) == root_calls(1, n, depth, failing, 5)
        if n and 2 * n <= rays.BLOCK_SAMPLES:
            # a chunk passed and a level failed; the levels pulled back
            # unpolished and not kept are at most those kept before it
            assert 0 <= len(calls) - depth < failing[0]
        assert list(traced) == list(expected) == angles
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    def test_level_that_needs_newton_goes_back_to_speculating(self, monkeypatch):
        # level 5 of FAR_MAP's three rays fails first, in the chunk 5..6: it
        # is chained from its kept roots, with Newton, and level 6 is then
        # speculated again from its picks.  Six levels take seven principal
        # roots (level 6's first speculation is not kept), and the last
        # nearest_branch call checks a chunk of one speculated level
        monkeypatch.setattr(RayConfig, "substeps", 1)
        angles, config = list(closed_family(5, 3)), RayConfig(depth=6)
        tol, failing = late_newton_tol(angles, config)
        assert failing == [5]
        monkeypatch.setattr(rays, "NEWTON_TOL", tol)
        expected = reference_trace_family(FAR_MAP, angles, config)
        calls, shapes = [], []
        root, nearest = rays.principal_root, rays.nearest_branch
        monkeypatch.setattr(rays, "principal_root", lambda u, d: calls.append(1) or root(u, d))
        monkeypatch.setattr(rays, "nearest_branch",
                            lambda p, *args, **kw: shapes.append(p.shape) or nearest(p, *args, **kw))
        traced = rays._trace_family(FAR_MAP, angles, config)
        assert len(calls) == 7
        assert shapes[-1] == (1, 1, 3)
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    def test_large_degree_chains_every_level(self, monkeypatch):
        # d = 100 at nu = 1: 99 rays at 8 substeps, d * s * n = 79,200
        # distances a level, past a chunk's 8 * BLOCK_SAMPLES, so bound = 0
        # and no level is speculated.  Each level is one block (b = 8 <=
        # 4096 // 99), one principal root, and every nearest_branch call picks
        # a row or checks a polished block, never a chunk of levels; the bits
        # match the reference
        m, depth = UnicriticalMap(100, 0.3 + 0.5j), 3
        angles, config = periodic_angles(100, 1), RayConfig(depth=depth)
        assert 8 * rays.BLOCK_SAMPLES // 100 < 8 * 99
        expected = reference_trace_family(m, angles, config)
        calls, shapes = [], []
        root, nearest = rays.principal_root, rays.nearest_branch
        monkeypatch.setattr(rays, "principal_root", lambda u, d: calls.append(1) or root(u, d))
        monkeypatch.setattr(rays, "nearest_branch",
                            lambda p, *args, **kw: shapes.append(p.shape) or nearest(p, *args, **kw))
        traced = rays._trace_family(m, angles, config)
        assert len(calls) == root_calls(8, 99, depth, d=100) == depth
        assert {len(shape) for shape in shapes} <= {1, 2}
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    @pytest.mark.parametrize("d,nu", [(3, 5), (5, 3), (10, 2)])
    def test_moderate_degree_speculates(self, monkeypatch, d, nu):
        # 242, 124 and 99 rays at 8 substeps: a level's d * s * n distances
        # fit a chunk's 8 * BLOCK_SAMPLES, so levels are speculated a chunk
        # at a time, one principal root a level, and few are chained row by
        # row (chaining every level took 1.2 to 1.5 times as long at d = 3
        # and 5)
        m, depth = UnicriticalMap(d, 0.1j), RayConfig().depth
        calls, shapes = [], []
        root, nearest = rays.principal_root, rays.nearest_branch
        monkeypatch.setattr(rays, "principal_root", lambda u, d: calls.append(1) or root(u, d))
        monkeypatch.setattr(rays, "nearest_branch",
                            lambda p, *args, **kw: shapes.append(p.shape) or nearest(p, *args, **kw))
        assert classify_landing(m, nu).unresolved == []
        assert len(calls) == depth
        assert any(len(shape) == 3 for shape in shapes)
        assert sum(len(shape) == 1 for shape in shapes) <= 5 * 8

    @pytest.mark.parametrize("n,depth", [(63, 48), (1023, 16), (rays.BLOCK_SAMPLES + 5, 8)])
    def test_matches_when_the_critical_flag_splits_the_family(self, monkeypatch, n, depth):
        # a tolerance that flags some rays and not others checks that min |z|
        # is taken over every block of every level, and over every chunk of
        # levels of the narrow family n = 63
        monkeypatch.setattr(rays, "DERIV_TOL", 1.0)
        angles = list(closed_family(2, n))
        config = RayConfig(depth=depth)
        expected = reference_trace_family(BLOCK_MAPS[2], angles, config)
        traced = rays._trace_family(BLOCK_MAPS[2], angles, config)
        flags = {t.hit_critical_pullback for t in expected.values()}
        assert flags == {True, False}
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    def test_critical_flag_reads_every_sublevel_of_every_chunk(self, monkeypatch):
        # DERIV_TOL is set between two least |z| of one ray, over all its
        # sublevels and over its level samples only, so that ray is flagged
        # only if the chunked check folds every row of every level
        m, angles = BLOCK_MAPS[2], list(closed_family(2, 63))
        config = RayConfig(depth=48)
        least = np.empty(len(angles))
        expected = reference_trace_family(m, angles, config, least)
        at_levels = np.array([np.abs(expected[a].points).min() for a in angles])
        r = int((at_levels / least).argmax())
        assert at_levels[r] > least[r]
        # d x^(d-1) at d = 2, x the geometric mean of the two
        monkeypatch.setattr(rays, "DERIV_TOL", 2 * math.sqrt(least[r] * at_levels[r]))
        expected = reference_trace_family(m, angles, config)
        traced = rays._trace_family(m, angles, config)
        assert expected[angles[r]].hit_critical_pullback
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []


def verdict_bits(traces):
    """A traced family's ok, diam, critical_hit and perm arrays as bytes."""
    return [np.asarray(x).tobytes() for x in (traces.ok, traces.diam, traces.critical_hit,
                                               traces.perm)]


def family_bits(traces):
    """Every trace_bits field of each ray of a traced family, and its
    verdict_bits."""
    return [trace_bits(traces[a]) for a in traces], verdict_bits(traces)


def reference_components(perm):
    """Each index's component of i -> perm[i], by walking: the least index
    of the cycle it flows into."""
    labels = []
    for i in range(len(perm)):
        path, seen, j = [], set(), i
        while j not in seen:
            path.append(j)
            seen.add(j)
            j = int(perm[j])
        labels.append(min(path[path.index(j):]))
    return np.array(labels, dtype=np.intp)


def spy_forks(monkeypatch):
    """The list of forks made from here on, one entry each."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitTrace:
    """A wide family split into whole cycles and traced in forked children
    equals the one-part trace, bit for bit, and leaves no process behind."""

    @pytest.mark.parametrize("m,family,depth,cpus,zero_tol", [
        (CHEB, lambda: periodic_angles(2, 10), 48, 2, False),
        (CHEB, lambda: periodic_angles(2, 10), 48, 3, False),
        (RABBIT, lambda: periodic_angles(2, 10), 48, 2, False),   # 95 rays unresolved
        (CUBIC, lambda: periodic_angles(3, 6), 48, 2, False),
        (UnicriticalMap(100, 0.3 + 0.5j), lambda: periodic_angles(100, 1), 48, 2, False),
        (BLOCK_MAPS[2], lambda: list(closed_family(2, 1023)), 16, 2, False),
        (BLOCK_MAPS[2], lambda: list(closed_family(2, 1500)), 16, 2, False),   # trees
        (BLOCK_MAPS[2], lambda: list(closed_family(2, 1023)), 8, 2, True),     # Newton every block
    ], ids=["chebyshev", "chebyshev-3-parts", "rabbit", "cubic", "d100", "closed-1023",
            "closed-1500", "newton-tol-0"])
    def test_matches_one_part(self, monkeypatch, m, family, depth, cpus, zero_tol):
        if zero_tol:
            monkeypatch.setattr(rays, "NEWTON_TOL", 0.0)
        angles, config = family(), RayConfig(depth=depth)
        forks = spy_forks(monkeypatch)
        visible_cpus(monkeypatch, cpus)
        split = rays._trace_family(m, angles, config)
        assert len(forks) == cpus - 1
        assert_no_children()
        visible_cpus(monkeypatch, 1)
        whole = rays._trace_family(m, angles, config)
        assert len(forks) == cpus - 1
        assert family_bits(split) == family_bits(whole)

    def test_preperiodic_trace_rays_family_matches_one_part(self, monkeypatch):
        # k/2046 for odd k maps onto a period-10 angle in one step, so each
        # component is a cycle with one-level trees
        thetas = [Fraction(k, 2046) for k in range(1, 2046, 2)]
        forks = spy_forks(monkeypatch)
        visible_cpus(monkeypatch, 2)
        split = [trace_bits(t) for t in trace_rays(RABBIT, thetas)]
        assert len(forks) == 1
        visible_cpus(monkeypatch, 1)
        assert split == [trace_bits(t) for t in trace_rays(RABBIT, thetas)]
        assert_no_children()

    @pytest.mark.parametrize("m,angles", [
        (UnicriticalMap(5, 0.1j), periodic_angles(5, 3)),           # narrow: 124 rays
        (BLOCK_MAPS[2], list(closed_family(2, 300))),   # wide, but not its halves
        (CHEB, [Angle(1, 3), Angle(2, 3)]),     # narrow, and one component
    ])
    def test_narrow_family_or_parts_not_split(self, monkeypatch, m, angles):
        forks = spy_forks(monkeypatch)
        visible_cpus(monkeypatch, 2)
        rays._trace_family(m, angles, RayConfig(depth=8))
        assert forks == []

    @given(perm=st.integers(1, 60).flatmap(
               lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
           count=st.integers(1, 4), least=st.integers(1, 30))
    def test_parts_are_balanced_unions_of_whole_components(self, perm, count, least):
        perm = np.array(perm, dtype=np.intp)
        labels = reference_components(perm)
        sizes = np.bincount(labels)
        parts = rays._parts(perm, count, lambda size: size >= least)
        assert 1 <= len(parts) <= min(count, np.count_nonzero(sizes))
        assert np.array_equal(np.sort(np.concatenate(parts)), np.arange(len(perm)))
        for part in parts:
            assert np.array_equal(part, np.sort(part))
            assert np.isin(perm[part], part).all()
            # every ray of a component the part meets is in the part
            assert np.isin(labels, labels[part]).sum() == len(part)
        if len(parts) > 1:
            lengths = [len(part) for part in parts]
            assert min(lengths) >= least
            assert max(lengths) - min(lengths) <= sizes.max()

    @pytest.mark.parametrize("death", ["raises", "killed"])
    def test_failed_child_part_is_traced_here(self, monkeypatch, death):
        # each part of 511 or 512 rays chains a level in one block, one
        # principal root: the parent takes 16 for its own part and 16 more
        # for the child's
        angles, config = periodic_angles(2, 10), RayConfig(depth=16)
        visible_cpus(monkeypatch, 1)
        whole = family_bits(rays._trace_family(CHEB, angles, config))
        parent, root, calls = os.getpid(), rays.principal_root, []

        def failing(u, d):
            if os.getpid() != parent:
                if death == "raises":
                    raise RuntimeError("a child's failure")
                os.kill(os.getpid(), signal.SIGKILL)
            calls.append(1)
            return root(u, d)

        monkeypatch.setattr(rays, "principal_root", failing)
        visible_cpus(monkeypatch, 2)
        assert family_bits(rays._trace_family(CHEB, angles, config)) == whole
        assert len(calls) == 2 * config.depth
        assert_no_children()

    def test_failed_fork_part_is_traced_here(self, monkeypatch):
        angles, config = periodic_angles(2, 10), RayConfig(depth=16)
        visible_cpus(monkeypatch, 1)
        whole = family_bits(rays._trace_family(CHEB, angles, config))

        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        visible_cpus(monkeypatch, 2)
        assert family_bits(rays._trace_family(CHEB, angles, config)) == whole

    def test_interrupt_kills_and_reaps_the_children(self, monkeypatch):
        # the child would sleep 30 s; the parent is interrupted on its first
        # principal root, after the fork, and kills it rather than wait
        parent, root = os.getpid(), rays.principal_root

        def interrupted(u, d):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)
            return root(u, d)

        monkeypatch.setattr(rays, "principal_root", interrupted)
        forks = spy_forks(monkeypatch)
        visible_cpus(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            rays._trace_family(CHEB, periodic_angles(2, 10), RayConfig(depth=4))
        assert time.perf_counter() - start < 10
        assert len(forks) == 1
        assert_no_children()

    def test_children_write_no_output(self, monkeypatch, capfd):
        # a child that flushed the stdio buffers it inherited would write
        # their text a second time
        forks = spy_forks(monkeypatch)
        visible_cpus(monkeypatch, 2)
        with open(os.dup(1), "w") as out:       # block-buffered
            out.write("written once\n")
            rays._trace_family(CHEB, periodic_angles(2, 10), RayConfig(depth=4))
        assert len(forks) == 1
        assert capfd.readouterr() == ("written once\n", "")


def _dict_classes(cls):
    """classes, representatives and max_class_diameter as classify_landing
    once assembled them: a dict of member lists keyed by label."""
    traces = cls.traces
    angles = list(traces)
    landed_idx = np.flatnonzero(traces.ok)
    landed = [angles[i] for i in landed_idx.tolist()]
    points = traces.landing[landed_idx]
    labels = _single_linkage(points, rays.GROUPING_TOL)
    groups = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    classes = [[landed[i] for i in members] for members in groups.values()]
    representatives = points[[members[0] for members in groups.values()]].tolist()
    max_diam = 0.0
    for size in {len(members) for members in groups.values()} - {1}:
        rows = points[[members for members in groups.values() if len(members) == size]]
        max_diam = max(max_diam, float(rays._diameters(rows).max()))
    return classes, representatives, max_diam


class TestTailTrace:
    """A classification's trace keeps each ray's last CLUSTER_SIZE samples
    and its folds over all levels: they, and so the verdicts, equal the full
    trace's bit for bit, and so do the traces that its lookups give."""

    @pytest.mark.parametrize("m,family,config,substeps,cpus,zero_tol", [
        (CHEB, lambda: periodic_angles(2, 10), RayConfig(), 8, 2, False),
        (RABBIT, lambda: periodic_angles(2, 8), RayConfig(), 8, 1, False),   # unresolved rays
        (CUBIC, lambda: periodic_angles(3, 4), RayConfig(depth=3), 3, 1, False),
        (UnicriticalMap(2, 0.25), lambda: periodic_angles(2, 5), RayConfig(depth=300), 8, 1,
         False),                                                             # narrow and deep
        (BLOCK_MAPS[5], lambda: list(closed_family(5, 7)), RayConfig(depth=48), 8, 1, True),
        (BLOCK_MAPS[2], lambda: list(closed_family(2, 1500)), RayConfig(depth=16), 8, 2, False),
    ], ids=["chebyshev-split", "rabbit", "cubic-depth-3", "parabolic-depth-300",
            "newton-tol-0", "trees-split"])
    def test_tails_and_folds_match_the_full_trace(self, monkeypatch, m, family, config, substeps,
                                                  cpus, zero_tol):
        if zero_tol:
            monkeypatch.setattr(rays, "NEWTON_TOL", 0.0)
        monkeypatch.setattr(RayConfig, "substeps", substeps)
        visible_cpus(monkeypatch, cpus)
        angles = family()
        full = rays._trace_family(m, angles, config)
        tail = rays._trace_family(m, angles, config, tail=True)
        kept = min(rays.CLUSTER_SIZE, config.depth + 1)
        assert tail.samples.shape == (kept, len(angles)) and tail.step_res.size == 0
        assert tail.samples.tobytes() == full.samples[-kept:].tobytes()
        assert verdict_bits(tail) == verdict_bits(full)
        for a in angles[:2] + angles[-2:]:
            assert trace_bits(tail[a]) == trace_bits(full[a])

    def test_a_sample_lost_above_the_tail_fails_the_ray(self, monkeypatch):
        # a NaN principal root at level 10 of a ray no other ray pulls back
        # leaves its tail finite; the finite flag, folded over every level,
        # still fails it
        visible_cpus(monkeypatch, 1)
        angles = list(closed_family(2, 1500))
        leaf = int(np.setdiff1d(np.arange(len(angles)),
                                rays._trace_family(CHEB, angles, RayConfig()).perm)[0])
        root = rays.principal_root

        def trace(tail):
            calls = []

            def poisoned(u, d):
                calls.append(1)
                out = root(u, d)
                if len(calls) == 40:    # four blocks a level: level 10's last
                    out[..., leaf] = np.nan
                return out

            monkeypatch.setattr(rays, "principal_root", poisoned)
            return rays._trace_family(CHEB, angles, RayConfig(), tail=tail)

        full, tail = trace(False), trace(True)
        assert not np.isfinite(full.samples[:, leaf]).all()
        assert np.isfinite(tail.samples[:, leaf]).all()
        assert tail.diam[leaf] == math.inf and not tail.ok[leaf]
        assert verdict_bits(tail) == verdict_bits(full)


class TestClassifyLanding:
    def test_nu2_classes(self):
        cls = classify_landing(CHEB, 2)
        assert [[str(a) for a in c] for c in cls.classes] == [["0/1"], ["1/3", "2/3"]]
        assert not cls.unresolved

    def test_nu3_classes(self):
        cls = classify_landing(CHEB, 3)
        assert [[str(a) for a in c] for c in cls.classes] == [
            ["0/1"],
            ["1/7", "6/7"],
            ["2/7", "5/7"],
            ["3/7", "4/7"],
        ]
        assert cls.class_count == 4

    @pytest.mark.parametrize("nu", [2, 3, 5])
    def test_class_count_and_pairing(self, nu):
        cls = classify_landing(CHEB, nu)
        assert cls.class_count == 2 ** (nu - 1)
        for members in cls.classes:
            partners = {Angle(1 - Fraction(a)) for a in members}
            assert partners == set(members)

    def test_landings_match_oracle(self):
        cls = classify_landing(CHEB, 5)
        for a, t in cls.traces.items():
            assert t.converged
            assert abs(t.landing - chebyshev_oracle(a)) < 1e-6

    def test_semiconjugacy(self):
        cls = classify_landing(CHEB, 5)
        for a, t in cls.traces.items():
            img = cls.traces[multiply(a, 2)]
            assert abs(img.landing - CHEB(t.landing)) <= 1e-5

    def test_classes_do_not_cross(self):
        assert classes_noncrossing(classify_landing(CHEB, 5).classes)

    def test_class_images_land_together(self):
        cls = classify_landing(CHEB, 4)
        membership = {a: i for i, c in enumerate(cls.classes) for a in c}
        for members in cls.classes:
            images = {membership[multiply(a, 2)] for a in members}
            assert len(images) == 1

    def test_parabolic_ray_reported_unresolved(self):
        # c = 1/4: the fixed ray lands at a parabolic point; pullback
        # converges only polynomially, which depth 48 cannot certify
        cls = classify_landing(UnicriticalMap(2, 0.25 + 0j), 1)
        assert cls.unresolved == [Angle(0)]
        assert cls.unreliable
        assert cls.traces[Angle(0)].landing is None

    def test_representative_separation(self):
        cls = classify_landing(CHEB, 5)
        reps = cls.representatives
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert abs(reps[i] - reps[j]) > 1e-6

    def test_intra_class_diameter_reported(self):
        cls = classify_landing(CHEB, 3)
        assert cls.max_class_diameter < 1e-9

    @pytest.mark.parametrize("m,nu,singletons", [
        (CHEB, 6, False),                           # pairs {t, 1 - t}, and 0 alone
        (UnicriticalMap(2, 0.1j), 6, True),         # a quasicircle: one ray a point
        (UnicriticalMap(100, 0.3 + 0.5j), 1, True),     # no trace lands: all rescued
        (UnicriticalMap(2, 0.25), 1, True),     # parabolic: not even the solve lands 0/1
    ], ids=["pairs", "singletons", "rescued", "none-landed"])
    def test_class_assembly_matches_dict_of_lists(self, m, nu, singletons):
        cls = classify_landing(m, nu)
        classes, representatives, max_diam = _dict_classes(cls)
        assert cls.classes == classes
        assert all(type(a) is Angle for c in cls.classes for a in c)
        assert cls.representatives == representatives
        assert repr(cls.max_class_diameter) == repr(max_diam)
        assert all(len(c) == 1 for c in cls.classes) == singletons
        assert sum(map(len, cls.classes)) + len(cls.unresolved) == m.d**nu - 1

    @pytest.mark.parametrize("nu", [13, 14])
    def test_distinct_landings_closer_than_old_radius_stay_apart(self, nu):
        # nearest distinct landing points are 5.9e-7 apart at nu=13 and
        # 1.5e-7 at nu=14; a 1e-6 radius merged two classes at nu=13
        cls = classify_landing(CHEB, nu)
        assert cls.class_count == 2 ** (nu - 1)
        assert not cls.unresolved and not cls.unreliable

    @pytest.mark.parametrize("nu,tol,count", [(8, 1e-3, 127), (13, 1e-6, 4095)])
    def test_false_merge_flagged_unreliable(self, monkeypatch, nu, tol, count):
        # the merged class {0, 1/N, (N-1)/N} maps onto angles whose landing
        # points lie farther apart than tol, so its image is two classes
        monkeypatch.setattr(rays, "GROUPING_TOL", tol)
        cls = classify_landing(CHEB, nu)
        assert cls.class_count == count
        assert [Angle(0), Angle(1, 2**nu - 1), Angle(2**nu - 2, 2**nu - 1)] in cls.classes
        assert not cls.unresolved
        assert cls.unreliable

    @pytest.mark.usefixtures("one_cpu")
    def test_memory_linear_in_rays(self):
        # an all-pairs distance matrix alone would take 268 MB at nu=12
        tracemalloc.start()
        try:
            classify_landing(CHEB, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    @pytest.mark.usefixtures("one_cpu")
    def test_traces_held_as_arrays(self):
        # per-ray lists of boxed complex and float took about 82 bytes a
        # sample retained and 113 at peak; every level's samples and step
        # residuals in arrays, 1,375 bytes a ray retained and 1,744 at peak;
        # the terminal cluster and per-ray folds, 288 and 674
        classify_landing(CHEB, 4)
        n = 2**12 - 1
        tracemalloc.start()
        try:
            cls = classify_landing(CHEB, 12)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cls.class_count == 2**11
        assert retained <= 500 * n
        assert peak <= 1000 * n

    def test_oracle_fields_read_without_tracing_again(self, monkeypatch):
        # the landing, the verdicts and the residual are kept; only points
        # and step_residuals trace the ray again, once a lookup
        cls = classify_landing(CHEB, 10)
        calls = []
        family = rays._trace_family
        monkeypatch.setattr(rays, "_trace_family",
                            lambda *args, **kw: calls.append(1) or family(*args, **kw))
        read = [(t.landing, t.converged, t.residual, t.hit_critical_pullback)
                for t in cls.traces.values()]
        assert len(read) == 2**10 - 1 and calls == []
        trace = cls.traces[Angle(1, 1023)]
        assert len(trace.step_residuals) == len(trace.points) == RayConfig().depth + 1
        assert len(calls) == 1

    @pytest.mark.usefixtures("one_cpu")
    def test_large_degree_memory_is_linear_in_d(self):
        # a block's picks hold d distances a sample, d * b * n <= d * BLOCK_SAMPLES
        # of them, 48 bytes each at most; a table of d^2 distances a sample
        # peaked at 192 MB here
        d = 100
        m = UnicriticalMap(d, 0.3 + 0.5j)
        tracemalloc.start()
        try:
            classify_landing(m, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples = (d - 1) * (RayConfig().depth + 1)
        assert peak <= 50 * samples + 48 * d * rays.BLOCK_SAMPLES

    @pytest.mark.parametrize("nu", [40, 10**9])
    def test_oversized_input_rejected_at_once(self, nu):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="lower nu or depth"):
            classify_landing(CHEB, nu)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("nu", [2.0, True])
    def test_non_integer_nu_rejected(self, nu):
        # 2.0 raised a TypeError from numpy, and True ran as nu = 1
        with pytest.raises(ValueError, match="nu must be an integer"):
            classify_landing(CHEB, nu)

    def test_numpy_integer_nu_accepted(self):
        assert classify_landing(CHEB, np.int64(2)).class_count == 2

    @pytest.mark.parametrize("d,nu", [(np.int64(2**32), 2), (2**32, np.int64(2))])
    def test_numpy_integer_powers_do_not_wrap(self, monkeypatch, d, nu):
        # (2^32)^2 wrapped round to 0 in int64, which passed the size guard
        # and asked numpy for 2^32 roots of unity; the stub stops a wrapped
        # guard before any array is made
        def unreached(*args):
            raise AssertionError("the size guard passed")

        monkeypatch.setattr(rays, "_trace_family", unreached)
        with pytest.raises(ValueError, match="lower nu or depth"):
            classify_landing(UnicriticalMap(d, 0j), nu)

    def test_numpy_integer_inputs_serialize(self):
        # to_dict held the numpy d and nu, which json.dumps refused
        cls = classify_landing(UnicriticalMap(np.int64(2), -2 + 0j), np.int64(2))
        assert json.loads(json.dumps(cls.to_dict())) == classify_landing(CHEB, 2).to_dict()

    def test_size_limit_counts_depth(self):
        with pytest.raises(ValueError, match="to depth 4000"):
            classify_landing(CHEB, 13, config=RayConfig(depth=4000))

    def test_to_dict_shape(self):
        d = classify_landing(CHEB, 2).to_dict()
        assert d["classes"] == [["0/1"], ["1/3", "2/3"]]
        assert d["unreliable"] is False

    @pytest.mark.parametrize("m,nu,digest", [
        (CHEB, 8, "e0c56d37b3ce987c335c2f8c8ace6a38c81de3f3264053f838602e8ea9ff5799"),
        (CUBIC, 4, "f9bee1bc6a2cf5d210c739d08f5fae4593ea7c9f65a7ba96fe6cc81c7ca4e26b"),
    ])
    def test_traces_golden_digest(self, m, nu, digest):
        # pins the pullback's output bit for bit
        assert traces_digest(classify_landing(m, nu).traces.values()) == digest


class TestTracesMapping:
    @pytest.mark.parametrize("m,nu", [(CHEB, 6), (CUBIC, 3)])
    def test_mapping_contract(self, m, nu):
        cls = classify_landing(m, nu)
        angles = periodic_angles(m.d, nu)
        assert len(cls.traces) == len(angles)
        assert list(cls.traces) == angles
        assert [t.angle for t in cls.traces.values()] == angles
        found = cls.traces[Fraction(angles[5])]
        assert type(found.angle) is Angle and found.angle == angles[5]
        assert cls.traces.get(Angle(1, 4)) is None
        assert Angle(1, 4) not in cls.traces
        copied = {**cls.traces}
        assert list(copied) == angles
        for a in (angles[0], angles[1], angles[len(angles) // 2], angles[-1]):
            expected = trace_bits(trace_ray(m, a))
            assert trace_bits(cls.traces[a]) == trace_bits(copied[a]) == expected

    def test_lookup_finds_what_a_dict_of_angles_finds(self):
        # ticks 0, 1 and 2 on the lattice 1/4; a key is turned into its tick
        angles = [Angle(0), Angle(1, 4), Angle(1, 2)]
        traces = rays._trace_family(CHEB, angles, RayConfig(depth=8))
        by_angle = {a: a for a in angles}       # the former index
        hits = [Angle(1, 4), Fraction(1, 4), 0.25, 0.5, np.float64(0.5), 0, -0.0,
                np.int64(0), Fraction(0), Decimal("0.5")]
        misses = [Fraction(3, 2), Fraction(5, 4), Fraction(-1, 2), Fraction(1, 3), Angle(3, 4),
                  "1/2", "0", 1, 1.0, 0.1, math.nan, math.inf, None, (1, 4)]
        for key in hits:
            assert by_angle[key] == key
            assert key in traces and traces[key].angle == key
            assert type(traces[key].angle) is Angle
        for key in misses:
            assert key not in by_angle and key not in traces
            with pytest.raises(KeyError):
                traces[key]

    def test_deferred_trace_behaves_as_a_full_one(self, monkeypatch):
        # a lookup defers points and step_residuals as the map and config,
        # so copying or pickling it traces nothing, and every copy reads
        # trace_ray's fields
        cls = classify_landing(CUBIC, 3)
        a = periodic_angles(3, 3)[7]
        full = trace_ray(CUBIC, a)
        calls = []
        family = rays._trace_family
        monkeypatch.setattr(rays, "_trace_family",
                            lambda *args, **kw: calls.append(1) or family(*args, **kw))
        copies = [cls.traces[a], copy.copy(cls.traces[a]), copy.deepcopy(cls.traces[a]),
                  pickle.loads(pickle.dumps(cls.traces[a]))]
        assert calls == []
        assert all(type(t) is rays.RayTrace for t in copies)
        assert copies[0].step_residuals == full.step_residuals
        assert [trace_bits(t) for t in copies] == [trace_bits(full)] * 4
        assert [(repr(t), t.to_dict()) for t in copies] == [(repr(full), full.to_dict())] * 4
        assert all(t == full for t in copies) and len(calls) == 4
        moved = dataclasses.replace(cls.traces[a], landing=None)
        assert moved.points == full.points and moved.landing is None
        with pytest.raises(AttributeError, match="no attribute 'point'"):
            cls.traces[a].point

    def test_each_lookup_builds_a_new_trace(self):
        cls = classify_landing(CHEB, 3)
        first = cls.traces[Angle(1, 7)]
        assert first == cls.traces[Angle(1, 7)] and first is not cls.traces[Angle(1, 7)]
        first.points.clear()
        first.landing = None
        assert len(cls.traces[Angle(1, 7)].points) == RayConfig().depth + 1
        assert cls.traces[Angle(1, 7)].landing is not None


def _brute_force_linkage(points: np.ndarray, tol: float) -> np.ndarray:
    close = np.abs(points[:, None] - points[None, :]) <= tol
    labels = np.arange(len(points))
    for start in range(len(points)):
        if labels[start] != start:
            continue
        stack = [start]
        while stack:
            for j in np.flatnonzero(close[stack.pop()]):
                if labels[j] > start:
                    labels[j] = start
                    stack.append(j)
    return labels


@st.composite
def clustered_points(draw):
    """Point sets with exact duplicates, chains spaced just inside or just
    outside the radius, and points sharing a real part."""
    tol = draw(st.sampled_from([1e-9, 1e-6, 1e-3, 0.25]))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    pts = [complex(x, y) for x, y in draw(st.lists(st.tuples(coord, coord), max_size=12))]
    for _ in range(draw(st.integers(0, 3))):
        start = complex(draw(coord), draw(coord))
        step = tol * draw(st.sampled_from([1 - 1e-6, 1.0, 1 + 1e-6, 0.5, 2.0]))
        direction = draw(st.sampled_from([1, 1j, -1, (1 + 1j) / abs(1 + 1j)]))
        pts += [start + k * step * direction for k in range(draw(st.integers(2, 6)))]
    if pts:
        x = pts[draw(st.integers(0, len(pts) - 1))].real
        pts += [complex(x, y) for y in draw(st.lists(coord, max_size=4))]
        pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))]
    order = draw(st.permutations(range(len(pts))))
    return np.array([pts[i] for i in order], dtype=complex), tol


def _union_find_linkage(points: np.ndarray, tol: float) -> list[int]:
    """A plain union-find over all pairs, each point labelled with the least
    index in its component."""
    parent = list(range(len(points)))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a in range(len(points)):
        for b in range(a + 1, len(points)):
            if abs(points[a] - points[b]) <= tol:
                ra, rb = root(a), root(b)
                parent[max(ra, rb)] = min(ra, rb)
    return [root(x) for x in range(len(points))]


class TestSingleLinkage:
    @given(clustered_points())
    def test_sweep_matches_all_pairs(self, case):
        points, tol = case
        labels = _single_linkage(points, tol).tolist()
        assert labels == _brute_force_linkage(points, tol).tolist()
        assert labels == _union_find_linkage(points, tol)

    @pytest.mark.parametrize("points", [
        [],
        [1 + 1j],
        [0.5, 0.5, 0.5, 3.0, 0.5],                  # exact duplicates
        [4.5 - 1j, 0.5j, 4.5 - 1j, 0.5j, 4.5 - 1j],
    ], ids=["empty", "one", "duplicates", "interleaved-duplicates"])
    def test_edge_cases_match_union_find(self, points):
        points = np.array(points, dtype=complex)
        labels = _single_linkage(points, 1e-9)
        assert labels.dtype == np.intp and labels.shape == (len(points),)
        assert labels.tolist() == _union_find_linkage(points, 1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_chains_longer_than_the_radius(self, seed):
        # shuffled chains whose links are just inside the radius, so that
        # each component is many radii long and its labels take several jumps
        rng = np.random.default_rng(seed)
        tol = 1e-3
        chains = [complex(*rng.uniform(-2, 2, 2)) + tol * (1 - 1e-6) * np.arange(40) * direction
                  for direction in (1, 1j, (1 + 1j) / abs(1 + 1j))]
        points = rng.permutation(np.concatenate(chains))
        labels = _single_linkage(points, tol)
        assert labels.tolist() == _union_find_linkage(points, tol)
        assert len(set(labels.tolist())) <= 3

    def test_chain_links_through_neighbours(self):
        points = np.array([0, 0.9, 1.8, 3.0, 3.0 + 0.5j], dtype=complex)
        assert _single_linkage(points, 1.0).tolist() == [0, 0, 0, 3, 3]


class TestClassesNoncrossing:
    def test_interleaved_classes_detected(self):
        bad = [[Angle(0), Angle(1, 2)], [Angle(1, 4), Angle(3, 4)]]
        assert not classes_noncrossing(bad)

    def test_nested_classes_ok(self):
        good = [[Angle(0), Angle(1, 2)], [Angle(1, 8), Angle(3, 8)]]
        assert classes_noncrossing(good)

    def test_singletons_never_cross(self):
        assert classes_noncrossing([[Angle(0)], [Angle(1, 3)], [Angle(2, 3)]])

    def test_mixed_denominators_nested(self):
        assert classes_noncrossing([[Angle(1, 7), Angle(6, 7)], [Angle(1, 3), Angle(2, 3)]])

    def test_mixed_denominators_crossing(self):
        assert not classes_noncrossing([[Angle(0), Angle(1, 2)], [Angle(1, 3), Angle(5, 6)]])

    def test_shared_point_counts_as_crossing(self):
        # gaps are open: classes sharing an angle are reported as crossing
        assert not classes_noncrossing([[Angle(0), Angle(1, 2)], [Angle(1, 2), Angle(3, 4)]])

    def test_sweep_matches_all_pairs_reference(self):
        rng = random.Random(20)
        answers = []
        for _ in range(100_000):
            classes = random_classes(rng)
            answers.append(classes_noncrossing(classes))
            assert answers[-1] == reference_noncrossing(classes), classes
        assert 0.2 < sum(answers) / len(answers) < 0.8

    def test_sweep_matches_reference_on_landing_classes(self):
        classes = classify_landing(CHEB, 8).classes
        assert classes_noncrossing(classes) is reference_noncrossing(classes) is True


class TestPeriodicAngleFamilies:
    def test_family_closed_for_tracing(self):
        # classify_landing relies on this closure
        for nu in (2, 3, 4):
            fam = set(periodic_angles(2, nu))
            assert {multiply(a, 2) for a in fam} == fam


class TestCycleRescue:
    """classify_landing lands the rays that its trace leaves unresolved by
    Newton on their cycles; a ray the trace landed keeps its landing."""

    @pytest.mark.parametrize("c, count, traced", [
        (RABBIT.c, 4093, 242),
        (-1, 4094, 202),
        (-1.7548776662466927, 3933, 78),
        (1j, 4024, 400),
    ], ids=["rabbit", "basilica", "airplane", "misiurewicz-i"])
    def test_every_ray_lands_at_nu_12(self, c, count, traced):
        # the last sample of a depth-48 pullback leaves 242, 202, 78 and 400
        # rays unresolved, and 3853, 3893, 3868 and 3693 classes, unflagged
        cls = classify_landing(UnicriticalMap(2, c), 12)
        assert (cls.class_count, len(cls.unresolved)) == (count, 0)
        assert len(cls.rescue.rescued) == traced
        assert cls.rescue.least_multiplier > 1
        assert not cls.unreliable

    def test_every_ray_lands_at_d_100(self):
        # Newton at level 1 leaves residuals above the absolute NEWTON_TOL, so
        # the trace lands none of the 99 fixed rays; the solve lands them all
        m = UnicriticalMap(100, 0.3 + 0.5j)
        cls = classify_landing(m, 1)
        assert cls.class_count == 99
        assert not any(t.converged for t in trace_rays(m, cls.rescue.rescued))

    @pytest.mark.parametrize("nu, solved", [(8, 44), (10, 95)])
    def test_traced_landings_kept_bit_for_bit(self, nu, solved):
        # the solve runs on the unresolved rays' whole cycles, at nu = 8 on
        # 44 rays of which the trace landed 9; at nu = 10 no cycle is mixed
        angles = periodic_angles(2, nu)
        traced = dict(zip(angles, trace_rays(RABBIT, angles)))
        cls = classify_landing(RABBIT, nu)
        rescued = set(cls.rescue.rescued)
        assert rescued and not cls.unresolved and cls.rescue.rays == solved
        assert rescued == {a for a, t in traced.items() if not t.converged}
        for a, t in traced.items():
            got = cls.traces[a]
            if t.converged:
                assert np.array([got.landing, got.residual]).tobytes() == \
                    np.array([t.landing, t.residual]).tobytes()
            else:
                # a rescued trace: the solved landing, converged, the last
                # correction as its residual, and the pullback's samples; f
                # maps the landing to its image ray's, which, if traced, may
                # lie up to about LANDING_TOL from the solved cycle's point
                assert got.converged and got.residual <= 1e-12 * max(1.0, abs(got.landing))
                assert abs(RABBIT(got.landing) - cls.traces[multiply(a, 2)].landing) < 1e-8
                assert got.points == t.points and got.step_residuals == t.step_residuals

    def test_no_solve_when_every_ray_landed(self, monkeypatch):
        # every ray of z^2 - 2 lands by tracing, so the solve never runs
        monkeypatch.setattr(rays, "solve_cycles", None)
        cls = classify_landing(CHEB, 10)
        assert cls.rescue is None and cls.class_count == 2**9

    def test_parabolic_rays_stay_unresolved(self):
        # c = -3/4 is the basilica's root: its 62 classes at nu = 6 are the
        # basilica's.  The rays landing at the parabolic fixed point crawl
        # under Newton, whose corrections stay far above CYCLE_TOL, so they
        # stay unresolved: a residual test alone reported 63 classes and
        # none unresolved.
        cls = classify_landing(UnicriticalMap(2, -0.75), 6)
        assert cls.unresolved
        assert cls.class_count < 62
