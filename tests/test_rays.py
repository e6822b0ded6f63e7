import time
import tracemalloc
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
)
from orbitgrowth.rays import _single_linkage

CHEB = UnicriticalMap(2, -2 + 0j)


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
        t = trace_ray(CHEB, Angle(1, 3), depth=20)
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
            trace_ray(CHEB, Angle(1, 3), depth=10**9)

    def test_insufficient_depth_reported_not_converged(self):
        t = trace_ray(CHEB, Angle(1, 3), depth=12)
        assert not t.converged
        assert t.landing is None
        assert t.residual > 1e-9


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

    @pytest.mark.parametrize("nu", [40, 10**9])
    def test_oversized_input_rejected_at_once(self, nu):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="lower nu or depth"):
            classify_landing(CHEB, nu)
        assert time.perf_counter() - start < 1.0

    def test_size_limit_counts_depth(self):
        with pytest.raises(ValueError, match="to depth 4000"):
            classify_landing(CHEB, 13, depth=4000)

    def test_to_dict_shape(self):
        d = classify_landing(CHEB, 2).to_dict()
        assert d["classes"] == [["0/1"], ["1/3", "2/3"]]
        assert d["unreliable"] is False


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


class TestPeriodicAngleFamilies:
    def test_family_closed_for_tracing(self):
        # classify_landing relies on this closure
        for nu in (2, 3, 4):
            fam = set(periodic_angles(2, nu))
            assert {multiply(a, 2) for a in fam} == fam
