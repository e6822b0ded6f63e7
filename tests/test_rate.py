import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitgrowth import (Angle, UnicriticalMap, classify_landing, interval_class_bound,
                         periodic_angles, rate_estimate)


class TestRateEstimate:
    def test_chebyshev_class_counts(self):
        # landing-class counts 2^(nu-1): per-sample (1-1/nu)*log 2, max at nu=10
        est = rate_estimate(2, [(nu, 2 ** (nu - 1)) for nu in range(2, 11)])
        assert est.per_sample == tuple(
            math.log(2 ** (nu - 1)) / nu for nu in range(2, 11)
        )
        assert est.estimate == pytest.approx(0.9 * math.log(2))
        assert est.margin == pytest.approx(-0.1 * math.log(2))

    def test_exact_rate_from_full_counts(self):
        est = rate_estimate(2, [(k, 2**k) for k in range(1, 11)])
        assert est.estimate == math.log(2)
        assert est.margin == 0.0

    def test_rate_not_exhibited(self):
        est = rate_estimate(3, [(1, 1)])
        assert est.estimate == 0.0
        assert est.margin == pytest.approx(-math.log(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            rate_estimate(2, [])
        with pytest.raises(ValueError):
            rate_estimate(2, [(1, 0)])
        with pytest.raises(ValueError):
            rate_estimate(2, [(0, 1)])
        with pytest.raises(ValueError):
            rate_estimate(2, [(1, 2), (1, 3)])
        with pytest.raises(ValueError):
            rate_estimate(1, [(1, 2)])

    @pytest.mark.parametrize("samples", [[(2.5, 4.9)], [(True, 2)], [(2, 4.0)]])
    def test_non_integer_sample_rejected(self, samples):
        # these were silently truncated to (2, 4), (1, 2) and (2, 4)
        with pytest.raises(ValueError, match=r"^(nu|count) must be an integer >= 1, got"):
            rate_estimate(2, samples)

    def test_numpy_integer_samples_accepted(self):
        est = rate_estimate(2, [(np.int64(1), np.int64(2))])
        assert est.samples == ((1, 2),) and type(est.samples[0][0]) is int

    def test_md_counts_increase_toward_target(self):
        # (1/nu) log(d^nu - 1) is increasing and within 1e-3 of log d from nu=11
        values = [math.log(2**nu - 1) / nu for nu in range(1, 14)]
        assert all(a < b for a, b in zip(values, values[1:]))
        for nu in range(11, 14):
            assert math.log(2**nu - 1) / nu > math.log(2) - 1e-3

    def test_rows(self):
        rows = rate_estimate(2, [(1, 2), (2, 4)]).rows()
        assert [r["nu"] for r in rows] == [1, 2]
        assert all(r["target"] == math.log(2) for r in rows)

    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 10_000)),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        )
    )
    def test_margin_monotone_in_counts(self, samples):
        est = rate_estimate(2, samples)
        bumped = rate_estimate(2, [(nu, count + 1) for nu, count in samples])
        assert bumped.estimate >= est.estimate
        assert bumped.margin >= est.margin

    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(1, 10_000)),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        ),
        st.integers(2, 6),
        st.integers(2, 6),
    )
    def test_margin_antitone_in_target(self, samples, d1, d2):
        if d1 > d2:
            d1, d2 = d2, d1
        assert rate_estimate(d1, samples).margin >= rate_estimate(d2, samples).margin


class TestIntervalClassBound:
    def test_half_interval(self):
        assert interval_class_bound(2, 5, Fraction(1, 2)) == 8

    def test_full_interval(self):
        assert interval_class_bound(2, 3, 1) == 4

    def test_string_fraction(self):
        assert interval_class_bound(2, 5, "1/2") == 8

    @pytest.mark.parametrize("nu", [0, -1, 3.0, True])
    def test_bad_nu_rejected(self, nu):
        # 3.0 gave 2, and True gave 0
        with pytest.raises(ValueError, match="nu must be an integer >= 1"):
            interval_class_bound(2, nu, "1/2")

    def test_eps_range_validated(self):
        with pytest.raises(ValueError):
            interval_class_bound(2, 3, 0)
        with pytest.raises(ValueError):
            interval_class_bound(2, 3, Fraction(3, 2))

    def test_consistent_with_observed_chebyshev_classes(self):
        # 2^(nu-1) observed classes dominate the full-interval bound minus
        # the boundary effect
        for nu in range(2, 9):
            assert 2 ** (nu - 1) >= interval_class_bound(2, nu, 1) - 1

    def test_nu_beyond_the_digit_limit_refused(self):
        # refused before 3^20000 is computed: its 9,543 digits could not be printed
        with pytest.raises(ValueError, match=r"nu=20000: .*4300 digits"):
            interval_class_bound(3, 20000, Fraction(1, 2))

    def test_largest_printable_bound_accepted(self):
        # 3^9012 has 4,300 digits, 3^9013 has 4,301
        assert len(str(interval_class_bound(3, 9012, 1))) == 4300
        with pytest.raises(ValueError, match="nu=9013"):
            interval_class_bound(3, 9013, 1)

    def test_exact_rational_arithmetic(self):
        assert interval_class_bound(2, 64, Fraction(1, 3)) == (2**64) // 6

    def test_adjacent_angles_land_together(self):
        # the premise "no two consecutive period-nu angles land together" is
        # false: on z^2 - 2 the rays at 511/1023 and 512/1023, adjacent among
        # the period-10 angles, both land at 2 cos(2 pi 511/1023).  On the arc
        # [1/4, 3/4] its 512 angles fall into 256 classes, theta with
        # 1 - theta: the closed form, one below floor(512/2) + 1
        angles = periodic_angles(2, 10)
        pair = [Angle(511, 1023), Angle(512, 1023)]
        assert angles.index(pair[1]) == angles.index(pair[0]) + 1
        cls = classify_landing(UnicriticalMap(2, -2), 10)
        assert pair in cls.classes
        arc = {a for a in angles if Fraction(1, 4) <= a <= Fraction(3, 4)}
        classes = {i for i, members in enumerate(cls.classes) for a in members if a in arc}
        assert (len(arc), len(classes)) == (512, 256)
        assert len(classes) == interval_class_bound(2, 10, Fraction(1, 2)) < len(arc) // 2 + 1
