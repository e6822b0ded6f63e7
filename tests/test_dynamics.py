import cmath
import math

import numpy as np
import pytest

from orbitgrowth import UnicriticalMap, escape_radius, verify_disk_hypothesis
from orbitgrowth.dynamics import branch_roots


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

    def test_report_is_truthy(self):
        assert bool(verify_disk_hypothesis(UnicriticalMap(2, -6 + 0j), 4.0)) is True


class TestBranchRoots:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_bit_identical_to_reference(self, d):
        rng = np.random.default_rng(d)
        u = rng.normal(size=300) * 10.0 ** rng.integers(-8, 4, size=300) \
            + 1j * rng.normal(size=300)
        # the branch cut (positive real axis) with both signs of zero, the
        # negative real axis, and zero itself
        edges = [complex(2.5, 0.0), complex(2.5, -0.0), complex(-2.5, 0.0),
                 complex(-2.5, -0.0), complex(0.0, 0.0), complex(0.0, -0.0)]
        u = np.concatenate([u, edges]).reshape(2, -1)
        for _ in range(2):    # the second call reads the cached roots of unity
            got, want = branch_roots(u, d), reference_branch_roots(u, d)
            assert got.shape == want.shape == (2, u.shape[1], d)
            assert got.tobytes() == want.tobytes()
