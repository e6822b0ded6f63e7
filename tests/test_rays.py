import dataclasses
import functools
import hashlib
import inspect
import math
import random
import time
import tracemalloc
from collections import deque
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
from orbitgrowth.dynamics import _single_linkage, branch_roots, escape_radius

CHEB = UnicriticalMap(2, -2 + 0j)
CUBIC = UnicriticalMap(3, 0.3 + 0.5j)


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


def reference_trace_family(m, angles, config):
    """The former pullback, one sublevel per step over a window of the last s
    rings; the module's constants are read at call time."""
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
        cand = branch_roots(w - c, d)
        pick = np.argmin(np.abs(cand - seeds[:, None]), axis=1)
        z = cand[rows, pick]

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

    # x -> d x^(d-1) is monotone: this flags the rays with any sample flagged
    critical_hit = d * min_abs ** (d - 1) < rays.DERIV_TOL
    tail = min(rays.CLUSTER_SIZE, depth + 1)
    finite = np.isfinite(samples).all(axis=0)
    with np.errstate(invalid="ignore"):
        diam = np.where(finite, rays._diameters(samples[depth + 1 - tail:].T), math.inf)
    ok = finite & (diam <= config.landing_tol) & (step_res.max(axis=0) <= rays.NEWTON_TOL)
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
            RayConfig(landing_tol=0.0)
        with pytest.raises(ValueError):
            RayConfig(depth=0)

    def test_config_fields_are_the_settable_values(self):
        names = [f.name for f in dataclasses.fields(RayConfig)]
        assert names == ["depth", "substeps", "landing_tol", "grouping_tol"]

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
    ])
    def test_equals_one_trace_per_angle(self, m, thetas):
        together = trace_rays(m, thetas)
        alone = [trace_ray(m, t) for t in thetas]
        assert [t.angle for t in together] == [Angle(Fraction(t)) for t in thetas]
        assert [trace_fields(t) for t in together] == [trace_fields(t) for t in alone]

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
        depth = rays.MAX_RAY_SAMPLES // size - 1
        trace_rays(CHEB, thetas, config=RayConfig(depth=depth))
        assert [len(angles) for angles in traced] == [size]
        with pytest.raises(ValueError, match="lower nu or depth"):
            trace_rays(CHEB, thetas, config=RayConfig(depth=depth + 1))


class TestBlockPullback:
    """The pullback in blocks of sublevels matches the one-sublevel steps of
    reference_trace_family in every field, bit for bit."""

    @pytest.mark.parametrize("d", sorted(BLOCK_MAPS))
    @pytest.mark.parametrize("substeps", [1, 3, 4, 8])
    @pytest.mark.parametrize("n,depth", [(3, 48), (7, 48), (63, 48), (1023, 16),
                                         (rays.BLOCK_SAMPLES + 5, 8)])
    def test_matches_one_sublevel_steps(self, d, substeps, n, depth):
        # b = min(s, BLOCK_SAMPLES // n) rows per block: whole levels up to
        # n = 1023, two blocks a level at n = 1023 and s = 8, one row per
        # block past BLOCK_SAMPLES
        angles = list(closed_family(d, n))
        assert len(angles) == n
        config = RayConfig(depth=depth, substeps=substeps)
        expected = reference_trace_family(BLOCK_MAPS[d], angles, config)
        traced = rays._trace_family(BLOCK_MAPS[d], angles, config)
        assert list(traced) == list(expected) == angles
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

    @pytest.mark.parametrize("d,n,depth", [(2, 1023, 8), (3, 63, 24), (5, 7, 48)])
    def test_matches_when_newton_runs_on_every_block(self, monkeypatch, d, n, depth):
        # no residual meets a zero tolerance, so every block runs Newton and
        # its picks are first seeded with unpolished rows; on z^5 + 3 the
        # polish changes a pick, which the block must then make again
        monkeypatch.setattr(rays, "NEWTON_TOL", 0.0)
        angles = list(closed_family(d, n))
        config = RayConfig(depth=depth, substeps=8)
        expected = reference_trace_family(BLOCK_MAPS[d], angles, config)
        traced = rays._trace_family(BLOCK_MAPS[d], angles, config)
        assert not any(t.converged for t in expected.values())
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []


    @pytest.mark.parametrize("n,depth", [(1023, 16), (rays.BLOCK_SAMPLES + 5, 8)])
    def test_matches_when_the_critical_flag_splits_the_family(self, monkeypatch, n, depth):
        # a tolerance that flags some rays and not others checks that min |z|
        # is taken over every block of every level
        monkeypatch.setattr(rays, "DERIV_TOL", 1.0)
        angles = list(closed_family(2, n))
        config = RayConfig(depth=depth, substeps=8)
        expected = reference_trace_family(BLOCK_MAPS[2], angles, config)
        traced = rays._trace_family(BLOCK_MAPS[2], angles, config)
        flags = {t.hit_critical_pullback for t in expected.values()}
        assert flags == {True, False}
        assert [a for a in angles if trace_bits(traced[a]) != trace_bits(expected[a])] == []

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

    @pytest.mark.parametrize("nu", [13, 14])
    def test_distinct_landings_closer_than_old_radius_stay_apart(self, nu):
        # nearest distinct landing points are 5.9e-7 apart at nu=13 and
        # 1.5e-7 at nu=14; a 1e-6 radius merged two classes at nu=13
        cls = classify_landing(CHEB, nu)
        assert cls.class_count == 2 ** (nu - 1)
        assert not cls.unresolved and not cls.unreliable

    @pytest.mark.parametrize("nu,tol,count", [(8, 1e-3, 127), (13, 1e-6, 4095)])
    def test_false_merge_flagged_unreliable(self, nu, tol, count):
        # the merged class {0, 1/N, (N-1)/N} maps onto angles whose landing
        # points lie farther apart than tol, so its image is two classes
        cls = classify_landing(CHEB, nu, config=RayConfig(grouping_tol=tol))
        assert cls.class_count == count
        assert [Angle(0), Angle(1, 2**nu - 1), Angle(2**nu - 2, 2**nu - 1)] in cls.classes
        assert not cls.unresolved
        assert cls.unreliable

    def test_memory_linear_in_rays(self):
        # an all-pairs distance matrix alone would take 268 MB at nu=12
        tracemalloc.start()
        try:
            classify_landing(CHEB, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6

    def test_traces_held_as_arrays(self):
        # per-ray lists of boxed complex and float took about 82 bytes a
        # sample retained and 113 at peak; the family's arrays take 24
        classify_landing(CHEB, 4)
        samples = (2**12 - 1) * (RayConfig().depth + 1)
        tracemalloc.start()
        try:
            cls = classify_landing(CHEB, 12)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cls.class_count == 2**11
        assert retained <= 40 * samples
        assert peak <= 50 * samples

    @pytest.mark.parametrize("nu", [40, 10**9])
    def test_oversized_input_rejected_at_once(self, nu):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="lower nu or depth"):
            classify_landing(CHEB, nu)
        assert time.perf_counter() - start < 1.0

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


class TestSingleLinkage:
    @given(clustered_points())
    def test_sweep_matches_all_pairs(self, case):
        points, tol = case
        assert _single_linkage(points, tol).tolist() == _brute_force_linkage(points, tol).tolist()

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
