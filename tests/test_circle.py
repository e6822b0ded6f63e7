import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbitgrowth import (
    Angle,
    angle_from_string,
    circle_dist,
    cyclic_order,
    exact_period,
    interval_class_bound,
    multiply,
    orbit,
    periodic_angles,
    rate_estimate,
)


def rational_angles(max_den=1000):
    return st.builds(
        Angle,
        st.integers(min_value=-5000, max_value=5000),
        st.integers(min_value=1, max_value=max_den),
    )


class TestAngle:
    def test_reduction(self):
        assert Angle(3, 6) == Fraction(1, 2)

    def test_mod_one_wrap(self):
        assert Angle(9, 7) == Fraction(2, 7)

    def test_canonical_zero(self):
        a = Angle(0, 5)
        assert a.numerator == 0 and a.denominator == 1

    def test_zero_denominator_rejected(self):
        for p in (-1, 0, 1):
            with pytest.raises(ZeroDivisionError):
                Angle(p, 0)

    def test_negative_numerator_wraps(self):
        assert Angle(-1, 4) == Fraction(3, 4)

    def test_string_round_trip(self):
        a = angle_from_string("5/3")
        assert str(a) == "2/3"
        assert str(Angle(0)) == "0/1"

    @given(rational_angles())
    def test_invariants(self, a):
        assert 0 <= a.numerator < a.denominator or (a.numerator, a.denominator) == (0, 1)
        assert math.gcd(a.numerator, a.denominator) == 1

    @pytest.mark.parametrize("args", [
        (0,), (5,), (-3,), (3, 6), (9, 7), (-1, 4), (-9, 7), (7, -3), (-7, -3), (0, 5),
        ("5/3",), ("-5/3",), (" 7 ",), ("0.75",), ("-2.5",), ("1e-3",),
        (0.1,), (-0.1,), (2.75,), (-1e300,), (5e-324,),
        (Fraction(-22, 7),), (Fraction(1, 3), Fraction(1, 2)), (Angle(2, 3),),
        (0, -5), (-8, 4), (8, -4), (-1, -1), (12, -12), (-13, 12),
    ])
    def test_equals_fraction_mod_one(self, args):
        a, expected = Angle(*args), Fraction(*args) % 1
        assert type(a) is Angle
        assert (a.numerator, a.denominator) == (expected.numerator, expected.denominator)

    @given(st.integers(), st.integers().filter(bool))
    def test_integer_pairs_equal_fraction_mod_one(self, p, q):
        a, expected = Angle(p, q), Fraction(p, q) % 1
        assert (a.numerator, a.denominator) == (expected.numerator, expected.denominator)


class TestMultiply:
    def test_orbit_one_seventh(self):
        # the period-3 orbit 1/7 -> 2/7 -> 4/7 -> 1/7
        assert multiply(Angle(1, 7), 2) == Angle(2, 7)
        assert multiply(Angle(2, 7), 2) == Angle(4, 7)
        assert multiply(Angle(4, 7), 2) == Angle(1, 7)

    def test_fixed_zero(self):
        assert multiply(Angle(0), 5) == Angle(0)

    def test_degree_one_rejected(self):
        for d in (-1, 0, 1):
            with pytest.raises(ValueError):
                multiply(Angle(1, 3), d)

    def test_negative_degree(self):
        assert multiply(Angle(1, 3), -2) == Angle(1, 3)

    @pytest.mark.parametrize("call", [
        lambda d: multiply(Angle(1, 3), d),
        lambda d: periodic_angles(d, 2),
        lambda d: exact_period(Angle(1, 3), d),
        lambda d: orbit(Angle(1, 3), d),
        lambda d: rate_estimate(d, [(1, 2)]),
        lambda d: interval_class_bound(d, 3, "1/2"),
    ])
    @pytest.mark.parametrize("d", [2.5, 2.0, -3.0, True, Fraction(5, 2), "2"])
    def test_non_integer_degree_rejected(self, call, d):
        # rate_estimate(2.5, ...) gave target log 2.5, and
        # interval_class_bound(2.5, 3, "1/2") gave 3
        with pytest.raises(ValueError, match="degree must be an integer"):
            call(d)

    def test_any_rational_input(self):
        # a Fraction is read as it is, anything else through Fraction
        for theta in (Fraction(9, 7), Fraction(-1, 7), Angle(2, 7), 3, "9/7"):
            image = multiply(theta, 2)
            assert type(image) is Angle
            assert image == Fraction(2) * Fraction(theta) % 1

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_exact_product_on_periodic_angles(self, d):
        # every angle of period at most 10 under doubling, and of period nu
        # under d while d^nu <= 2^10
        angles = {a for base in {2, d} for nu in range(1, 11) if base**nu <= 2**10
                  for a in periodic_angles(base, nu)}
        for a in angles:
            image, expected = multiply(a, d), Angle(d * Fraction(a))
            assert type(image) is Angle
            assert (image.numerator, image.denominator) == (expected.numerator,
                                                            expected.denominator)

    @given(rational_angles(), st.integers(min_value=-5, max_value=5).filter(lambda d: abs(d) >= 2))
    def test_semigroup_action(self, a, d):
        assert multiply(multiply(a, d), d) == Angle(d * d * Fraction(a))


class TestCircleDist:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ((1, 4), (3, 4), Fraction(1, 2)),
            ((0, 1), (1, 4), Fraction(1, 4)),
            ((1, 7), (6, 7), Fraction(2, 7)),
        ],
    )
    def test_examples(self, a, b, expected):
        assert circle_dist(Angle(*a), Angle(*b)) == expected

    @given(rational_angles(), rational_angles(), rational_angles())
    def test_metric(self, a, b, c):
        assert circle_dist(a, b) == circle_dist(b, a)
        assert 0 <= circle_dist(a, b) <= Fraction(1, 2)
        assert (circle_dist(a, b) == 0) == (a == b)
        assert circle_dist(a, c) <= circle_dist(a, b) + circle_dist(b, c)

    @given(rational_angles(max_den=60), rational_angles(max_den=60),
           st.integers(min_value=2, max_value=6))
    def test_same_image_iff_fiber_aligned(self, a, b, d):
        # distinct angles share their image exactly when they differ by j/d
        if a == b:
            return
        same_image = multiply(a, d) == multiply(b, d)
        fiber = ((Fraction(a) - Fraction(b)) * d).denominator == 1
        assert same_image == fiber


class TestPeriodicAngles:
    def test_eight_theta_equals_theta(self):
        assert periodic_angles(2, 3) == [Angle(k, 7) for k in range(7)]

    def test_single_fixed_point(self):
        assert periodic_angles(2, 1) == [Angle(0)]

    def test_degree_three(self):
        angles = periodic_angles(3, 2)
        assert len(angles) == 8
        assert angles == sorted(angles)

    @pytest.mark.parametrize("d,nu", [(2, 5), (3, 3), (5, 2), (2, 10)])
    def test_count_and_period_divides(self, d, nu):
        angles = periodic_angles(d, nu)
        assert len(angles) == d**nu - 1
        for a in angles:
            p = exact_period(a, d)
            assert p is not None and nu % p == 0

    def test_negative_degree_fixed_points(self):
        # -2*theta = theta mod 1 has the three solutions k/3
        angles = periodic_angles(-2, 1)
        assert angles == [Angle(0), Angle(1, 3), Angle(2, 3)]
        assert all(multiply(a, -2) == a for a in angles)


class TestExactPeriod:
    def test_examples(self):
        assert exact_period(Angle(1, 7), 2) == 3
        assert exact_period(Angle(0), 2) == 1
        assert exact_period(Angle(1, 2), 2) is None

    def test_preperiodic_chain(self):
        assert exact_period(Angle(1, 6), 2) is None
        assert exact_period(Angle(1, 3), 2) == 2

    @given(rational_angles(max_den=300), st.integers(min_value=2, max_value=5))
    def test_period_is_least(self, a, d):
        p = exact_period(a, d)
        if p is None:
            return
        cur = a
        for k in range(1, p):
            cur = multiply(cur, d)
            assert cur != a
        assert multiply(cur, d) == a


class TestCyclicOrder:
    def test_examples(self):
        assert cyclic_order(Angle(0), Angle(1, 4), Angle(1, 2))
        assert not cyclic_order(Angle(0), Angle(1, 2), Angle(1, 4))
        assert cyclic_order(Angle(3, 4), Angle(0), Angle(1, 4))

    def test_distinctness_required(self):
        with pytest.raises(ValueError):
            cyclic_order(Angle(0), Angle(0), Angle(1, 2))

    @given(rational_angles(max_den=50), rational_angles(max_den=50), rational_angles(max_den=50))
    def test_exactly_one_orientation(self, a, b, c):
        if a == b or b == c or a == c:
            return
        assert cyclic_order(a, b, c) != cyclic_order(c, b, a)


class TestOrbit:
    def test_periodic_orbit(self):
        assert orbit(Angle(1, 7), 2) == [Angle(1, 7), Angle(2, 7), Angle(4, 7)]

    def test_preperiodic_orbit(self):
        assert orbit(Angle(1, 2), 2) == [Angle(1, 2), Angle(0)]

    def test_limit(self):
        assert orbit(Angle(1, 7), 2, limit=3) == [Angle(1, 7), Angle(2, 7), Angle(4, 7)]
        with pytest.raises(ValueError, match="more than 2 angles"):
            orbit(Angle(1, 7), 2, limit=2)

    @given(rational_angles(max_den=200), st.integers(min_value=2, max_value=4))
    def test_closed_under_multiplication(self, a, d):
        family = set(orbit(a, d))
        assert {multiply(x, d) for x in family} <= family
