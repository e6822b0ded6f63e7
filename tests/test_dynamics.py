import cmath
import json
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitgrowth import (Angle, NCRelation, RayConfig, Star, StarSet, UnicriticalMap,
                         check_maximal_bruteforce, classify_landing, count_periodic,
                         enumerate_grid_star_sets, enumerate_valid, escape_radius,
                         extremal_example, interval_class_bound, periodic_angles, quotient,
                         rate_estimate, verify_disk_hypothesis)
from orbitgrowth.dynamics import (CYCLE_TOL, _roots_of_unity, nearest_branch, principal_root,
                                  solve_cycles)


def reference_branch_roots(u, d):
    """The former formula: np.angle, and the roots of unity built afresh on
    every call."""
    r = np.abs(u) ** (1.0 / d)
    ang = np.angle(u)
    ang = np.where(ang < 0.0, ang + 2.0 * math.pi, ang)
    return (r * np.exp(1j * ang / d))[..., None] * np.exp(2j * math.pi * np.arange(d) / d)


class TestUnicriticalMap:
    def test_evaluation(self):
        m = UnicriticalMap(2, -2 + 0j)
        assert m(0) == -2
        assert m(2) == 2

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            UnicriticalMap(1, 0j)

    @pytest.mark.parametrize("d", [2.5, 2.0, True, "2"])
    def test_non_integer_degree_rejected(self, d):
        # UnicriticalMap(2.5, 0j) was accepted, and a bool passed as 0 or 1
        with pytest.raises(ValueError, match="integer >= 2"):
            UnicriticalMap(d, 0j)

    def test_numpy_integer_degree_accepted(self):
        assert UnicriticalMap(np.int64(3), 1j).d == 3

    def test_numpy_integer_degree_held_as_int(self):
        # a numpy degree's powers wrapped round at 2^63 in the size guards
        m = UnicriticalMap(np.int64(2**32), 1j)
        assert type(m.d) is int and m.d**2 == 2**64

    @pytest.mark.parametrize("c", [complex("nan"), complex("inf"), complex(0, float("-inf")),
                                   float("nan"), complex(1, float("nan"))])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            UnicriticalMap(2, c)


class TestEscapeRadius:
    def test_chebyshev_like(self):
        assert escape_radius(UnicriticalMap(2, -2 + 0j)) == 4.0

    def test_small_c_floor(self):
        assert escape_radius(UnicriticalMap(2, 0j)) == 2.0

    def test_cubic(self):
        assert escape_radius(UnicriticalMap(3, -6 + 0j)) == pytest.approx(math.sqrt(8))

    @pytest.mark.parametrize(
        "d,c", [(2, -2 + 0j), (2, -0.11 + 0.6557j), (3, -6 + 0j), (4, 1 + 1j)]
    )
    def test_doubling_property_on_circle(self, d, c):
        # |z| >= R must force |f(z)| >= 2|z|
        m = UnicriticalMap(d, c)
        R = escape_radius(m)
        for k in range(64):
            z = R * cmath.exp(2j * cmath.pi * k / 64)
            assert abs(m(z)) >= 2 * abs(z) - 1e-9


class TestDiskHypothesis:
    def test_passes_for_escaping_parameter(self):
        report = verify_disk_hypothesis(UnicriticalMap(2, -6 + 0j), 4.0)
        assert report.ok
        assert report.critical_value_margin == pytest.approx(2.0)
        assert report.pullback_margin == pytest.approx(4.0 - math.sqrt(10))

    def test_critical_value_inside_disk(self):
        assert not verify_disk_hypothesis(UnicriticalMap(2, -1 + 0j), 4.0).ok

    def test_pullback_not_compactly_inside(self):
        report = verify_disk_hypothesis(UnicriticalMap(2, -6 + 0j), 2.0)
        assert not report.ok
        assert report.pullback_margin < 0

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            verify_disk_hypothesis(UnicriticalMap(2, -6 + 0j), 0.0)

    @pytest.mark.parametrize("radius", ["4", 4 + 0j, None, True, np.bool_(True), Decimal(4)],
                             ids=["str", "complex", "None", "True", "numpy-True", "Decimal"])
    def test_non_real_or_bool_radius_rejected(self, radius):
        # "4", 4+0j and None raised TypeError from the comparison with 0, a
        # Decimal from the margins, and True was taken as 1 and reported as
        # "radius": true
        m = UnicriticalMap(2, -6 + 0j)
        with pytest.raises(ValueError, match=r"^radius must be a real number, got "):
            verify_disk_hypothesis(m, radius)
        with pytest.raises(ValueError, match=r"^radius must be a real number, got "):
            count_periodic(m, 1, radius=radius)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0, -1.0, 10**400],
                             ids=["nan", "inf", "zero", "negative", "10**400"])
    def test_radius_not_finite_and_positive_rejected(self, radius):
        # 10**400 raised OverflowError from the margins
        m = UnicriticalMap(2, -6 + 0j)
        with pytest.raises(ValueError, match=r"^radius must be finite and positive$"):
            verify_disk_hypothesis(m, radius)
        with pytest.raises(ValueError, match=r"^radius must be finite and positive$"):
            count_periodic(m, 1, radius=radius)

    @pytest.mark.parametrize("radius", [4, np.int64(4), np.float32(4), Fraction(4)],
                             ids=["int", "int64", "float32", "Fraction"])
    def test_real_radius_kept_as_float(self, radius):
        # an int radius was kept and reported as an int
        m = UnicriticalMap(2, -6 + 0j)
        report, expected = verify_disk_hypothesis(m, radius), verify_disk_hypothesis(m, 4.0)
        assert type(report.radius) is float and report == expected
        assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())
        assert count_periodic(m, 3, radius=radius).to_dict() == \
            count_periodic(m, 3, radius=4.0).to_dict()

    def test_report_is_truthy(self):
        assert bool(verify_disk_hypothesis(UnicriticalMap(2, -6 + 0j), 4.0)) is True


class TestBranchRoots:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bit_identical_to_reference(self, d):
        # the d roots as the principal root times the roots of unity
        rng = np.random.default_rng(d)
        u = rng.normal(size=300) * 10.0 ** rng.integers(-8, 4, size=300) \
            + 1j * rng.normal(size=300)
        # the branch cut (positive real axis) with both signs of zero, the
        # negative real axis, and zero itself
        edges = [complex(2.5, 0.0), complex(2.5, -0.0), complex(-2.5, 0.0),
                 complex(-2.5, -0.0), complex(0.0, 0.0), complex(0.0, -0.0)]
        u = np.concatenate([u, edges]).reshape(2, -1)
        for _ in range(2):    # the second call reads the cached roots of unity
            got = principal_root(u, d)[..., None] * _roots_of_unity(d)
            want = reference_branch_roots(u, d)
            assert got.shape == want.shape == (2, u.shape[1], d)
            assert got.tobytes() == want.tobytes()


# float components that reach the branch cut (+0.0, -0.0), overflow and
# underflow in |u| and the powers of |u|, and the non-finite values
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, 1e-300, -1e-300, 1.7e308,
               5e-324, math.inf, -math.inf, math.nan]
components = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
complex_arrays = st.lists(st.builds(complex, components, components), min_size=1, max_size=40)
EDGE_POINTS = [complex(a, b) for a in EDGE_FLOATS for b in (0.0, -0.0)] + [1e300j, 1e-300j]


def as_array(values):
    """The values, then the fixed edge points, as a 2-row array."""
    u = np.array(values + EDGE_POINTS + values[:1] * (len(values) % 2))
    return u.reshape(2, -1)


class TestPrincipalRoot:
    @settings(max_examples=200, deadline=None)
    @given(values=complex_arrays, d=st.integers(2, 7))
    def test_times_roots_of_unity_is_the_reference_bitwise(self, values, d):
        u = as_array(values)
        with np.errstate(all="ignore"):
            p = principal_root(u, d)
            want = reference_branch_roots(u, d)
            for j in range(d):
                assert (p * _roots_of_unity(d)[j]).tobytes() == want[..., j].tobytes()

    def test_positive_real_axis_is_the_lower_sector(self):
        for imag in (0.0, -0.0):
            p = principal_root(np.array([complex(9.0, imag)]), 2)
            assert p.tolist() == [3 + 0j]

    def test_zero(self):
        assert principal_root(np.zeros(3, dtype=complex), 4).tolist() == [0j] * 3


def long_copies(u, s, d):
    """u and s repeated to 2 x 128 d^2 samples, past the size where
    nearest_branch turns from argmin to its running minimum."""
    return np.resize(u, (2, 128 * d * d)), np.resize(s, (2, 128 * d * d))


class TestNearestBranch:
    @settings(max_examples=200, deadline=None)
    @given(values=complex_arrays, seeds=complex_arrays, d=st.integers(2, 7))
    def test_is_argmin_over_the_reference_roots(self, values, seeds, d):
        u = as_array(values)
        s = np.resize(np.array(seeds), u.shape)
        s[0, :3] = [0, math.nan, complex(0, math.inf)]
        with np.errstate(all="ignore"):
            for u, s in [(u, s), long_copies(u, s, d)]:
                want = np.argmin(np.abs(reference_branch_roots(u, d) - s[..., None]), axis=-1)
                assert nearest_branch(principal_root(u, d), s, d).tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(p=complex_arrays, seeds=complex_arrays, d=st.integers(2, 7))
    def test_is_argmin_for_any_root_and_seed(self, p, seeds, d):
        p, s = as_array(p), np.resize(np.array(seeds), (2, 1, 1))
        with np.errstate(all="ignore"):
            for p in (p, long_copies(p, p, d)[0]):
                want = np.argmin(np.abs(p[..., None] * _roots_of_unity(d) - s[..., None]),
                                 axis=-1)
                assert nearest_branch(p, s, d).tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(p=complex_arrays, seeds=complex_arrays, d=st.integers(2, 7))
    def test_out_receives_the_picked_root_bitwise(self, p, seeds, d):
        # exact ties in every array: 3 and -3 (to rounding) sit 5 from -4i at
        # d = 2, and p = 0 puts every root at 0
        p = as_array(p)
        s = np.resize(np.array(seeds), p.shape)
        p[:, :2], s[:, :2] = [3, 0], [-4j, 1 + 1j]
        s[0, 2:5] = [0, math.nan, complex(0, math.inf)]
        roots = _roots_of_unity(d)
        with np.errstate(all="ignore"):
            for p, s in [(p, s), long_copies(p, s, d)]:
                cand = p[..., None] * roots
                pick = np.argmin(np.abs(cand - s[..., None]), axis=-1)
                out = np.full(p.shape, complex(math.nan, 7.0))
                assert nearest_branch(p, s, d, out=out).tolist() == pick.tolist()
                assert out.tobytes() == (p * roots[pick]).tobytes()
                assert out.tobytes() == np.take_along_axis(cand, pick[..., None], -1).tobytes()

    @pytest.mark.parametrize("d,u,seed,pick", [
        (2, 9 + 0j, -4j, 0),      # the roots 3 and -3 (to rounding) sit 5 from -4i
        (4, 81 + 0j, 6 + 6j, 0),  # a seed on the bisector of roots 0 and 1
        (4, 81 + 0j, -6 + 6j, 1),  # ... and of roots 1 and 2
        (3, 0j, 1 + 1j, 0),       # u = 0 puts every root at 0
        (7, 0j, 0j, 0),
    ])
    def test_ties_go_to_the_lower_branch(self, d, u, seed, pick):
        p = principal_root(np.array([u]), d)
        dist = np.abs(p * _roots_of_unity(d) - seed)
        assert np.count_nonzero(dist == dist.min()) >= 2 and dist[pick] == dist.min()
        assert nearest_branch(p, np.array([seed]), d).tolist() == [pick]

    def test_first_nan_wins(self):
        # overflow in root 1 and an infinite seed give root 1 a NaN distance
        # while root 0's is infinite: argmin takes the NaN
        p = np.array([1.7e308 + 1.7e308j, complex(math.nan, 0.0)])
        s = np.array([complex(0.0, math.inf), 1.0])
        with np.errstate(all="ignore"):
            dist = np.abs(p[:, None] * _roots_of_unity(8) - s[:, None])
            assert not np.isnan(dist[0, 0]) and np.isnan(dist[0, 1]) and np.isnan(dist[1]).all()
            assert nearest_branch(p, s, 8).tolist() == [1, 0]


CHEB = UnicriticalMap(2, -2 + 0j)
HALF = [Angle(0), Angle(1, 2)]      # a 4-star, and a 2-star

# Each integer argument: (its least value, a valid value, the call, the ints the
# result keeps or returns, and its JSON output or None).
INT_SITES = {
    "UnicriticalMap d": (2, 3, lambda n: UnicriticalMap(n, 1j), lambda m: [m.d], None),
    "periodic_angles nu": (1, 3, lambda n: periodic_angles(2, n),
                           lambda angles: [a.denominator for a in angles], None),
    "NCRelation n": (1, 4, lambda n: NCRelation(n, [[1, 3], [2], [4]]),
                     lambda rel: [rel.n], NCRelation.to_dict),
    "extremal_example n": (1, 5, extremal_example, lambda rel: [rel.n], NCRelation.to_dict),
    "enumerate_valid n": (1, 5, lambda n: list(enumerate_valid(n)),
                          lambda rels: [rel.n for rel in rels],
                          lambda rels: [rel.to_dict() for rel in rels]),
    "interval_class_bound nu": (1, 5, lambda n: interval_class_bound(2, n, "1/2"),
                                lambda bound: [bound], None),
    "classify_landing nu": (1, 2, lambda n: classify_landing(CHEB, n),
                            lambda cls: [cls.nu], lambda cls: cls.to_dict()),
    "count_periodic k": (1, 2, lambda n: count_periodic(UnicriticalMap(2, -6), n, radius=4.0),
                         lambda res: [res.k], lambda res: res.to_dict()),
    "Star degree": (2, 4, lambda n: Star(n, HALF), lambda star: [star.degree], Star.to_dict),
    "StarSet degree": (2, 4, lambda n: StarSet(n, [Star(4, HALF)]),
                       lambda family: [family.degree], StarSet.to_list),
    "enumerate_grid_star_sets degree": (
        2, 3, enumerate_grid_star_sets,
        lambda families: [f.degree for f in families] + [s.degree for f in families for s in f],
        lambda families: [f.to_list() for f in families]),
    "RayConfig depth": (1, 3, lambda n: RayConfig(depth=n), lambda cfg: [cfg.depth], None),
    "rate_estimate nu": (1, 2, lambda n: rate_estimate(2, [(n, 3)]),
                         lambda est: [nu for nu, _ in est.samples], lambda est: est.to_dict()),
    "rate_estimate count": (1, 2, lambda n: rate_estimate(2, [(3, n)]),
                            lambda est: [count for _, count in est.samples],
                            lambda est: est.to_dict()),
    "check_maximal_bruteforce grid_refinement": (
        1, 2, lambda n: check_maximal_bruteforce(StarSet(4, [Star(4, HALF)]), n),
        lambda maximal: [], None),
}


class TestIntegerArguments:
    """Every integer argument follows one rule: a Python or numpy integer,
    not a bool, at least its least value, and kept as a Python int."""

    @pytest.mark.parametrize("numpy_int", [np.int64, np.int32])
    @pytest.mark.parametrize("site", sorted(INT_SITES))
    def test_numpy_integer_kept_as_int(self, site, numpy_int):
        _, value, call, ints, dump = INT_SITES[site]
        result, expected = call(numpy_int(value)), call(value)
        assert all(type(n) is int for n in ints(result))
        if dump is None:
            assert result == expected
        else:
            assert dump(result) == dump(expected)
            json.dumps(dump(result))

    @pytest.mark.parametrize("site", sorted(INT_SITES))
    def test_non_integer_or_too_small_rejected(self, site):
        least, value, call, _, _ = INT_SITES[site]
        for bad in (float(value), True, str(value), least - 1):
            with pytest.raises(ValueError, match=f"must be an integer >= {least}, got"):
                call(bad)


class TestIntegerArgumentDefects:
    """Inputs a numpy integer or a non-complex c once got quietly wrong."""

    def test_numpy_degree_star_not_quietly_accepted(self):
        # (t - t0) * degree wrapped round to 0 at int64, with only a numpy
        # RuntimeWarning, and this 4-star was accepted
        points = [Angle(0), Angle(2**62, 2**62 + 3)]
        with pytest.raises(ValueError, match="not a 4-star"):
            Star(4, points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not a 4-star"):
                Star(np.int64(4), points)

    def test_numpy_degree_star_past_int64_built(self):
        # a tick past int64 times a numpy degree raised OverflowError
        a = Fraction(1, 3**41)
        assert Star(np.int64(2), [a, a + Fraction(1, 2)]) == Star(2, [a, a + Fraction(1, 2)])

    def test_numpy_degree_families_and_quotient_serialize(self):
        json.dumps([f.to_list() for f in enumerate_grid_star_sets(np.int64(3))])
        star = Star(np.int64(4), HALF)
        ell, family = quotient(StarSet(np.int64(4), [star]), star, *HALF)
        assert (ell, family.degree) == (2, 2)
        assert type(ell) is int and type(family.degree) is int

    def test_float32_c_serializes(self):
        cls = classify_landing(UnicriticalMap(2, np.float32(-2)), 2)
        assert json.loads(json.dumps(cls.to_dict()))["c"] == [-2.0, 0.0]

    def test_c_kept_as_complex(self):
        m = UnicriticalMap(2, -2)
        assert type(m.c) is complex and m == CHEB
        assert json.dumps(classify_landing(m, 1).to_dict()["c"]) == "[-2.0, 0.0]"

    def test_string_c_still_rejected(self):
        # numpy's isfinite raised its own TypeError
        with pytest.raises(ValueError, match=r"^c must be a number, got '-2'$"):
            UnicriticalMap(2, "-2")

    @pytest.mark.parametrize("c", [None, [-2.0], b"-2", np.array(-2.0)])
    def test_other_non_number_c_rejected(self, c):
        with pytest.raises(ValueError, match=r"^c must be a number, got "):
            UnicriticalMap(2, c)

    @pytest.mark.parametrize("c", [Fraction(-2), Decimal("-2"), np.float32(-2), np.int64(-2)])
    def test_number_c_kept_as_complex(self, c):
        # numpy's isfinite refused a Fraction or Decimal with a TypeError
        m = UnicriticalMap(2, c)
        assert type(m.c) is complex and m == CHEB


class TestSolveCycles:
    """Newton on the periodic orbits through given points, with its guard."""

    def test_fixed_points_of_a_quadratic(self):
        # z^2 + c = z at (1 +- sqrt(1 - 4c)) / 2: the minus root of c = -1/2
        # attracts (|f'| = 0.73), so only the repelling one passes
        m = UnicriticalMap(2, -0.5)
        root = math.sqrt(3)
        exact = np.array([(1 + root) / 2, (1 - root) / 2])
        solve = solve_cycles(m, exact + 0.05, np.arange(2), 1)
        assert np.abs(solve.points - exact).max() < 1e-15
        assert np.allclose(solve.multiplier, 2 * exact)
        assert solve.solved.tolist() == [True, False]

    def test_period_a_multiple_of_the_cycle(self):
        # going three times round a fixed point solves it as once round,
        # with the multiplier cubed
        m = UnicriticalMap(2, -0.5)
        once, thrice = (solve_cycles(m, np.array([1.4 + 0.1j]), np.zeros(1, dtype=int), p)
                        for p in (1, 3))
        assert abs(once.points[0] - thrice.points[0]) < 1e-15
        assert abs(thrice.multiplier[0] - once.multiplier[0] ** 3) < 1e-12
        assert thrice.solved.all()

    def test_the_rabbits_period_three_cycles(self):
        # f^3(z) - z over f(z) - z has the rabbit's two 3-cycles as roots: the
        # one through the critical point 0 superattracts (A = 0) and fails
        # the guard; seeded off the orbit, each solved point maps to the next
        m = UnicriticalMap(2, -0.12256116687665362 + 0.7448617666197442j)
        f3 = np.polynomial.Polynomial([m.c, 0, 1])
        f3 = f3(f3(f3)) - np.polynomial.Polynomial([0, 1])
        period_3 = (f3 // np.polynomial.Polynomial([m.c, -1, 1])).roots()
        start = period_3[[np.abs(period_3).argmin(), np.abs(period_3).argmax()]]
        cycles = np.array([start, m(start), m(m(start))]).T.ravel()    # a cycle, then the other
        perm = np.array([1, 2, 0, 4, 5, 3])
        solve = solve_cycles(m, cycles * (1 + 1e-3), perm, 3)
        assert solve.solved.tolist() == [False] * 3 + [True] * 3
        assert np.abs(solve.multiplier[:3]).max() < 1e-12
        assert np.abs(m(solve.points) - solve.points[perm]).max() < 1e-14
        assert np.abs(solve.points - cycles).max() < 1e-12
        assert (solve.correction[3:] <= CYCLE_TOL * np.fmax(1, np.abs(solve.points[3:]))).all()

    def test_parabolic_point_not_solved(self):
        # z^2 + 1/4 has the double fixed point 1/2, multiplier 1: Newton halves
        # the error a step, so the last correction stays far above the guard
        solve = solve_cycles(UnicriticalMap(2, 0.25), np.array([0.52 + 0j]), np.zeros(1, int), 1)
        assert not solve.solved[0]
        assert 1e-6 < solve.correction[0] < 1e-3

    def test_non_finite_seed_fails_quietly(self):
        m = UnicriticalMap(2, 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve = solve_cycles(m, np.array([np.nan, np.inf, 1e300 + 0j]), np.arange(3), 1)
        assert not solve.solved.any()

    def test_empty(self):
        solve = solve_cycles(UnicriticalMap(2, 1j), np.empty(0, complex), np.empty(0, int), 4)
        assert solve.points.shape == solve.solved.shape == (0,)
