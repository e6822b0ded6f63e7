import cmath
import itertools
import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest
from mpmath import mp, mpc, mpf, workdps, workprec

from orbitgrowth import (
    NonConvergenceError,
    UnicriticalMap,
    count_periodic,
    itinerary_point,
)
from orbitgrowth import itinerary
from orbitgrowth.dynamics import _roots_of_unity, principal_root
from orbitgrowth.itinerary import DPS, MAX_CYCLES, RESIDUAL_TOL, _polish, _snap_f64, _solve
from test_dynamics import reference_branch_roots


def branch_root(u: mpc, d: int, i: int, snap_tol: mpf) -> mpc:
    """The i-th inverse-branch root of u: argument in [2*pi*(i-1)/d, 2*pi*i/d).

    Near-real u is snapped onto the positive real axis first (tie at the
    sector boundary, resolved toward the lower sector); without the snap,
    rounding noise across the branch cut flips the sector for real orbits.
    """
    if not 1 <= i <= d:
        raise ValueError(f"branch index {i} outside 1..{d}")
    u = mpc(u)
    if abs(u.imag) <= snap_tol * abs(u):
        u = mpc(u.real, 0)
    r = abs(u)
    if r == 0:
        return mpc(0)
    a = mp.arg(u)
    if a < 0:
        a += 2 * mp.pi
    return r ** (mpf(1) / d) * mp.expjpi((a / mp.pi + 2 * (i - 1)) / d)


def reference_point(m, word):
    """The former engine: iterate the composed mpmath inverse branches from 0
    until a full cycle moves less than the displacement tolerance."""
    k = len(word)
    with workdps(DPS):
        c = mpc(m.c)
        snap = mpf(10) ** (10 - DPS)
        disp_tol = mpf(10) ** (8 - DPS)
        z = mpc(0)
        cycles = 0
        converged = False
        for cycles in range(1, MAX_CYCLES + 1):
            prev = z
            for sym in reversed(word):
                z = branch_root(z - c, m.d, sym, snap)
            if abs(z - prev) < disp_tol:
                converged = True
                break

        w = z
        for _ in range(k):
            w = w**m.d + c
        residual = float(abs(w - z))
        converged = converged and residual <= RESIDUAL_TOL
        return z, converged


def reference_dedup(pts, tol):
    """The former all-pairs deduplication, as representative indices."""
    taken = np.zeros(len(pts), dtype=bool)
    representatives = []
    for i in np.lexsort((pts.imag, pts.real)):
        if taken[i]:
            continue
        group = np.abs(pts - pts[i]) <= tol
        taken |= group
        representatives.append(int(i))
    return representatives


def _reference_polish(seeds, c, d, k):
    """The former polish: Newton steps on f^k(z) - z in scalar mpmath, one
    seed at a time, at the current precision.  Returns the points, the
    steps each took and whether it settled."""
    c = mpc(c)
    disp_tol = mpf(10) ** (8 - DPS)
    points, steps = [], []
    settled = np.zeros(len(seeds), dtype=bool)
    for i, seed in enumerate(seeds.tolist()):
        z = mpc(seed)
        step = 0
        for step in range(1, MAX_CYCLES + 1):
            w, dw = z, 1
            for _ in range(k):
                p = w ** (d - 1)
                w, dw = p * w + c, d * p * dw
            delta = (w - z) / (dw - 1)
            z -= delta
            if abs(delta) < disp_tol:
                settled[i] = True
                break
        points.append(z)
        steps.append(step)
    return points, steps, settled


def reference_solve(m, branches):
    """The former per-word engine: the float64 seed sweep and a Newton polish
    at `DPS` digits for every row of `branches` (symbols 0..d-1), with the
    sector check on each word's own orbit.  Returns the points, residuals,
    Newton steps and convergence flags, one per word."""
    n, k = branches.shape
    d, c64 = m.d, complex(m.c)
    rows = np.arange(n)

    seeds = np.zeros(n, dtype=complex)
    for _ in range(MAX_CYCLES):
        prev = seeds
        for j in range(k - 1, -1, -1):
            seeds = reference_branch_roots(_snap_f64(seeds - c64), d)[rows, branches[:, j]]
        if np.abs(seeds - prev).max() < 1e-13:
            break

    points, residuals = [], []
    orbits = np.empty((n, k + 1), dtype=complex)
    with workdps(DPS):
        c = mpc(m.c)
        snap = mpf(10) ** (10 - DPS)
        polished, steps, settled = _reference_polish(seeds, m.c, d, k)
        for i, z in enumerate(polished):
            if abs(z.imag) <= snap * abs(z):
                z = mpc(z.real, 0)
            orbit = [z]
            for _ in range(k):
                orbit.append(orbit[-1] ** d + c)
            orbits[i] = [complex(w) for w in orbit]
            points.append(z)
            residuals.append(float(abs(orbit[-1] - z)))

    follows = np.ones(n, dtype=bool)
    for j in range(k):
        roots = reference_branch_roots(_snap_f64(orbits[:, j + 1] - c64), d)
        follows &= np.abs(roots - orbits[:, j, None]).argmin(axis=1) == branches[:, j]
    converged = settled & follows & (np.array(residuals) <= RESIDUAL_TOL)
    return points, residuals, steps, converged


def all_words(d, k):
    """Every word of length k over 0..d-1, row i spelling i in base d."""
    return np.arange(d**k)[:, None] // d ** np.arange(k - 1, -1, -1) % d


def necklaces(d, k):
    """(1/k) sum over j | k of phi(j) d^(k/j): the rotation classes of words."""
    phi = [sum(math.gcd(i, j) == 1 for i in range(1, j + 1)) for j in range(k + 1)]
    return sum(phi[j] * d ** (k // j) for j in range(1, k + 1) if k % j == 0) // k


M6 = UnicriticalMap(2, -6 + 0j)


def fk_minus_z_coeffs(k: int, c: int) -> list[int]:
    """Integer coefficients (highest degree first) of f^k(z) - z, exact."""
    poly = [1, 0]  # z
    for _ in range(k):
        poly = list(np.polymul(np.array(poly, dtype=object), np.array(poly, dtype=object)))
        poly[-1] += c
    poly[-2] -= 1
    return poly


class TestBranchRoot:
    def test_positive_branch(self):
        with workdps(40):
            z = branch_root(mpc(9), 2, 1, mpf("1e-30"))
            assert abs(z - 3) < 1e-30

    def test_negative_branch(self):
        with workdps(40):
            z = branch_root(mpc(9), 2, 2, mpf("1e-30"))
            assert abs(z + 3) < 1e-30

    def test_snap_resolves_boundary_tie(self):
        # noise below the snap threshold must not flip the sector
        with workdps(40):
            noisy = mpc(9, mpf("1e-35"))
            assert abs(branch_root(noisy, 2, 2, mpf("1e-30")) + 3) < 1e-30
            noisy = mpc(9, mpf("-1e-35"))
            assert abs(branch_root(noisy, 2, 2, mpf("1e-30")) + 3) < 1e-30

    def test_sector_assignment_cubic(self):
        with workdps(40):
            roots = [branch_root(mpc(8), 3, i, mpf("1e-30")) for i in (1, 2, 3)]
        args = [float(mp.arg(r)) % (2 * 3.141592653589793) for r in roots]
        for i, a in enumerate(args):
            lo = 2 * 3.141592653589793 * i / 3
            assert lo - 1e-12 <= a < lo + 2 * 3.141592653589793 / 3

    def test_branch_index_validated(self):
        with pytest.raises(ValueError):
            branch_root(mpc(1), 2, 3, mpf("1e-30"))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_vectorized_roots_in_sector_order(self, d):
        rng = np.random.default_rng(d)
        u = rng.normal(size=200) + 1j * rng.normal(size=200)
        u[:3] = [4.0, -4.0, 0.0]
        roots = principal_root(u, d)[:, None] * _roots_of_unity(d)
        with workdps(40):
            for row, x in zip(roots, u.tolist()):
                ref = [complex(branch_root(mpc(x), d, i, mpf("1e-30"))) for i in range(1, d + 1)]
                assert np.abs(row - ref).max() < 1e-12


class TestItineraryPoint:
    def test_fixed_point_positive_branch(self):
        res = itinerary_point(M6, (1,), radius=4.0)
        assert res.converged
        assert abs(complex(res.point) - 3.0) < 1e-12

    def test_fixed_point_negative_branch(self):
        res = itinerary_point(M6, (2,), radius=4.0)
        assert res.converged
        assert abs(complex(res.point) - (-2.0)) < 1e-12

    def test_genuine_period_two(self):
        # fixed points of f^2 besides 3, -2: roots of z^2 + z - 5
        res = itinerary_point(M6, (1, 2), radius=4.0)
        with workdps(40):
            expected = (-1 + mp.sqrt(21)) / 2
            assert abs(res.point - expected) < mpf("1e-30")
        swapped = itinerary_point(M6, (2, 1), radius=4.0)
        with workdps(40):
            expected = (-1 - mp.sqrt(21)) / 2
            assert abs(swapped.point - expected) < mpf("1e-30")

    def test_residual_tiny(self):
        res = itinerary_point(M6, (1, 2, 2), radius=4.0)
        assert res.converged
        assert res.residual < 1e-12

    def test_word_symbols_validated(self):
        with pytest.raises(ValueError):
            itinerary_point(M6, (0,), radius=4.0)
        with pytest.raises(ValueError):
            itinerary_point(M6, (3,), radius=4.0)
        with pytest.raises(ValueError):
            itinerary_point(M6, (), radius=4.0)

    @pytest.mark.parametrize("word", [(1.7, True), (1, 2.0), (True,), ("1",)])
    def test_non_integer_symbols_rejected(self, word):
        # (1.7, True) ran as the word (1, 1)
        with pytest.raises(ValueError, match="must be integers"):
            itinerary_point(M6, word, radius=4.0)

    def test_numpy_integer_symbols_accepted(self):
        res = itinerary_point(M6, np.array([1, 2]), radius=4.0)
        assert res.word == (1, 2) and type(res.word[0]) is int

    def test_hypothesis_gate(self):
        with pytest.raises(ValueError, match="hypothesis"):
            itinerary_point(UnicriticalMap(2, -1 + 0j), (1,), radius=4.0)

    def test_contraction_after_burn_in(self):
        # successive cycle displacements shrink strictly once iteration settles
        with workdps(40):
            c = mpc(-6)
            z = mpc(0)
            displacements = []
            for _ in range(12):
                prev = z
                z = branch_root(z - c, 2, 1, mpf("1e-30"))
                displacements.append(abs(z - prev))
            for a, b in zip(displacements[1:], displacements[2:]):
                assert b < a

    def test_to_dict(self):
        d = itinerary_point(M6, (1, 2), radius=4.0).to_dict()
        assert d["word"] == [1, 2]
        assert d["converged"] is True


M38 = UnicriticalMap(3, -8 + 0j)   # disk hypothesis holds at radius 3, but the
                                   # sector cut arg(z - c) = 0 crosses the disk


class TestReferenceEngine:
    @pytest.mark.parametrize("c", [-6 + 0j, cmath.rect(6, cmath.pi / 4), cmath.rect(6, -2.5)])
    def test_count_matches_reference_points_and_order(self, c):
        m = UnicriticalMap(2, c)
        for k in range(1, 6):
            ref = [reference_point(m, w) for w in itertools.product((1, 2), repeat=k)]
            assert all(ok for _, ok in ref)
            f64 = np.array([complex(z) for z, _ in ref])
            expected = [ref[i][0] for i in np.lexsort((f64.imag, f64.real))]
            got = count_periodic(m, k, radius=4.0).points
            assert len(got) == len(expected) == 2**k
            with workdps(40):
                assert max(abs(a - b) for a, b in zip(got, expected)) < mpf("1e-30")

    @pytest.mark.parametrize("c", [-6 + 0j, cmath.rect(6, -2.5)])
    def test_word_matches_reference(self, c):
        m = UnicriticalMap(2, c)
        for word in itertools.product((1, 2), repeat=3):
            res = itinerary_point(m, word, radius=4.0)
            z, ok = reference_point(m, word)
            assert res.converged and ok
            with workdps(40):
                assert abs(res.point - z) < mpf("1e-30")

    def test_real_points_stay_exactly_real(self):
        for z in count_periodic(M6, 5, radius=4.0).points:
            assert z.imag == 0

    def test_sector_check_snaps_rounding_noise(self, monkeypatch):
        # The polish's snap leaves each real point 1e-18 (relative) below the
        # axis, so every image z_(j+1) - c = z_j^2 of a positive z_j carries
        # about -1e-17 across the branch cut.  The sector-following check
        # must snap that tie to sector 0, as the seeding does; without the
        # snap, every word through a positive point fails the check.
        def noisy_mpc(*args):
            if len(args) == 2 and args[1] == 0:
                return mpc(args[0], -mpf("1e-18") * abs(args[0]))
            return mpc(*args)

        monkeypatch.setattr(itinerary, "mpc", noisy_mpc)
        for word in [(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)]:
            res = itinerary_point(M6, word, radius=4.0)
            assert res.point.imag != 0 and res.residual < 1e-15, word
            assert res.converged, word


NECKLACE_MAPS = [
    (UnicriticalMap(2, -6 + 0j), 4.0),
    (UnicriticalMap(2, cmath.rect(6, cmath.pi / 4)), 4.0),
    (UnicriticalMap(2, cmath.rect(6, -cmath.pi / 4)), 4.0),
    (UnicriticalMap(3, 8j), 3.0),
]


class TestNecklaceEngine:
    """One polish per rotation class must give every word the point the
    former per-word polish gave it.  Points are compared by word, not in
    output order: for c = 8j a point on the imaginary axis has a real part
    of rounding noise (about 1e-100) whose sign can reorder the dedup."""

    @pytest.mark.parametrize("m,radius", NECKLACE_MAPS)
    def test_every_word_matches_reference(self, m, radius):
        for k in range(1, 9):
            got, floats, _, ok, steps = _solve(m, np.arange(m.d**k), k, radius)
            assert ok.all() and len(steps) == necklaces(m.d, k)
            # the floats are the points rounded, bit for bit
            assert floats.tobytes() == np.array([complex(z) for z in got]).tobytes()
            # the reference polishes each word alone, so a spread sample of
            # at least 256 words stands for all of them (every word for d = 2)
            sample = np.arange(0, m.d**k, max(1, m.d**k // 256))
            ref, _, _, ref_ok = reference_solve(m, all_words(m.d, k)[sample])
            assert ref_ok.all()
            with workdps(40):
                assert max(abs(got[i] - z) for i, z in zip(sample, ref)) < mpf("1e-30")

    @pytest.mark.parametrize("m,radius", NECKLACE_MAPS)
    def test_image_of_word_point_is_rotated_word_point(self, m, radius):
        k = 6
        top = m.d ** (k - 1)
        got = _solve(m, np.arange(m.d**k), k, radius)[0]
        with workdps(60):
            c = mpc(m.c)
            for i, z in enumerate(got):
                rotated = i % top * m.d + i // top
                assert abs(z**m.d + c - got[rotated]) < mpf("1e-30")

    def test_word_of_smaller_period_gets_its_point(self):
        with workdps(40):
            alpha, beta = (-1 + mp.sqrt(21)) / 2, (-1 - mp.sqrt(21)) / 2
        for word, expected in [((1, 2, 1, 2), alpha), ((2, 1, 2, 1), beta),
                               ((2, 1, 2, 1, 2, 1), beta)]:
            res = itinerary_point(M6, word, radius=4.0)
            assert res.converged and abs(res.point - expected) < mpf("1e-30")
        got = _solve(M6, np.arange(16), 4, 4.0)[0]
        assert abs(got[0b0101] - alpha) < mpf("1e-30")
        assert abs(got[0b1010] - beta) < mpf("1e-30")

    @pytest.mark.parametrize("m,radius", NECKLACE_MAPS)
    def test_each_word_reports_its_own_residual(self, m, radius):
        # the residual of the word's point, evaluated at the polish's
        # precision, DPS plus k log10(d R^(d-1)) guard digits
        k = 6
        got, _, residuals, _, _ = _solve(m, np.arange(m.d**k), k, radius)
        guard = math.ceil(k * math.log10(m.d * radius ** (m.d - 1)))
        with workdps(DPS + guard):
            c = mpc(m.c)
            for z, residual in zip(got, residuals):
                w = z
                for _ in range(k):
                    w = w**m.d + c
                assert float(abs(w - z)) == residual

    @pytest.mark.parametrize("k,expected", [(10, 108), (12, 352)])
    def test_one_polish_per_necklace(self, k, expected):
        res = count_periodic(M6, k, radius=4.0)
        assert res.polished == expected == necklaces(2, k)
        assert expected <= res.newton_steps <= expected * MAX_CYCLES
        assert "polished" not in res.to_dict() and "newton_steps" not in res.to_dict()
        # the guard digits keep every image as good as a polish of its own
        # word (at most 3e-32 at k = 12); without them it reads about 3e-24
        assert res.max_residual < 1e-33


class TestFixedPointPolish:
    """The polish runs in fixed-point integers over all necklaces at once;
    the former scalar mpmath polish, from the same seeds at the same
    precision, must take the same Newton steps to the same points."""

    @pytest.mark.parametrize("m,k,radius,total", [
        (UnicriticalMap(2, -6 + 0j), 10, 4.0, 322),
        (UnicriticalMap(2, cmath.rect(6, math.radians(46))), 9, 4.0, 180),
        (UnicriticalMap(3, 8j), 6, 3.0, 390),
        (UnicriticalMap(40, 3 + 0j), 2, 1.1, 2460),
    ])
    def test_matches_reference_polish(self, monkeypatch, m, k, radius, total):
        calls = []

        def spy(seeds, c, d, k):
            out = _polish(seeds, c, d, k)
            calls.append((seeds, mp.prec, out))
            return out

        monkeypatch.setattr(itinerary, "_polish", spy)
        res = count_periodic(m, k, radius=radius)
        [(seeds, prec, (points, steps, settled))] = calls
        assert settled.all() and sum(steps) == res.newton_steps == total
        with workprec(prec):
            ref_points, ref_steps, _ = _reference_polish(seeds, m.c, m.d, k)
            assert steps == ref_steps
            assert max(abs(a - b) for a, b in zip(points, ref_points)) < mpf("1e-40")

    def test_non_finite_seed_takes_no_step(self):
        seeds = np.array([complex("nan"), complex("inf"), 3 + 0j, -2 + 0j])
        with workdps(DPS):
            points, steps, settled = _polish(seeds, -6 + 0j, 2, 1)
        assert steps[:2] == [0, 0] and steps[2:] == [1, 1]
        assert settled.tolist() == [False, False, True, True]
        assert points[2] == 3 and points[3] == -2

    def test_escaping_orbit_is_reported_unpolished(self):
        # at k = 40 the float64 seed is not close enough: its orbit leaves
        # the disk, so the polish stops before its first step
        itinerary_point(M6, (1,), radius=4.0)   # warm the hypothesis check
        start = time.perf_counter()
        with np.errstate(invalid="ignore"):
            res = itinerary_point(M6, (1, 2) * 20, radius=4.0)
        assert time.perf_counter() - start < 0.05
        assert not res.converged and res.residual == math.inf and res.cycles == 0


class TestSectorCheck:
    # c = -8, d = 3: the fixed points of f are 2.166 and a complex pair, all
    # in sectors 1 and 2, so no fixed point follows the word (3,).
    def test_word_without_its_point_not_converged(self):
        res = itinerary_point(M38, (3,), radius=3.0)
        assert res.residual < 1e-30
        assert not res.converged

    def test_count_raises_instead_of_short_count(self):
        with pytest.raises(NonConvergenceError, match="follows it"):
            count_periodic(M38, 3, radius=3.0)

    def test_coinciding_points_raise(self, monkeypatch):
        monkeypatch.setattr(itinerary, "DEDUP_TOL", 10.0)
        with pytest.raises(NonConvergenceError, match="gave only 1 points"):
            count_periodic(M6, 3, radius=4.0)


class TestDedup:
    def test_sweep_matches_all_pairs(self, monkeypatch):
        """count_periodic's distinctness check, fed random cluster sets as its
        solved points, against the all-pairs reference: it raises exactly when
        the reference merges two points, and otherwise returns every point in
        the reference's order.  The reference's representatives are pairwise
        more than tol apart, so they are fed as well, as a distinct set."""
        rng = random.Random(7)
        tol = 1e-3
        monkeypatch.setattr(itinerary, "DEDUP_TOL", tol)
        monkeypatch.setattr(itinerary, "_require_hypothesis", lambda m, radius: None)

        def count(pts):
            n = len(pts)
            solved = ([mpc(z) for z in pts.tolist()], pts.astype(complex), np.zeros(n),
                      np.ones(n, dtype=bool), [1])
            monkeypatch.setattr(itinerary, "_solve", lambda *args: solved)
            # one word of length 1 per point: a stand-in map of degree n
            return count_periodic(SimpleNamespace(d=n), 1, radius=1.0)

        merged = 0
        for _ in range(300):
            centers = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                       for _ in range(rng.randint(1, 12))]
            pts = []
            for z in centers:
                for _ in range(rng.randint(1, 4)):
                    step = rng.choice([0.0, 0.4 * tol, 0.9 * tol, 1.1 * tol, 3 * tol])
                    pts.append(z + complex(step * rng.choice([-1, 1]), rng.choice([0.0, step])))
                    z = pts[-1]
            pts = np.array(pts)
            expected = reference_dedup(pts, tol)
            if len(expected) < len(pts):
                merged += 1
                with pytest.raises(NonConvergenceError, match="gave only"):
                    count(pts)
            shuffled = list(expected)
            rng.shuffle(shuffled)
            points = [complex(z) for z in count(pts[shuffled]).points]
            assert points == pts[expected].tolist()
        assert 0 < merged < 300
        # equal real parts, as in a conjugate pair, are ordered by imaginary part
        points = count(np.array([1 + 2j, 1 + 0j, 1 - 1j, 0.5 + 3j])).points
        assert [complex(z) for z in points] == [0.5 + 3j, 1 - 1j, 1 + 0j, 1 + 2j]


class TestSizeGuard:
    def test_oversized_k_refused_before_work(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="lower k"):
            count_periodic(M6, 40, radius=4.0)
        with pytest.raises(ValueError, match="lower k"):
            count_periodic(M6, 10**9, radius=4.0)
        with pytest.raises(ValueError, match="lower k"):
            count_periodic(M38, 14, radius=3.0)
        assert time.perf_counter() - start < 1.0


class TestCountPeriodic:
    def test_fixed_points(self):
        res = count_periodic(M6, 1, radius=4.0)
        assert res.count == 2
        pts = sorted(complex(p).real for p in res.points)
        assert pts == pytest.approx([-2.0, 3.0], abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_counts_match_global_rootfinding(self, k):
        res = count_periodic(M6, k, radius=4.0)
        assert res.count == 2**k
        roots = np.roots(np.array(fk_minus_z_coeffs(k, -6), dtype=np.float64))
        computed = np.array([complex(p) for p in res.points])
        for r in roots:
            assert np.min(np.abs(computed - r)) < 1e-8

    def test_residuals_certified(self):
        res = count_periodic(M6, 5, radius=4.0)
        assert res.max_residual < 1e-12

    def test_large_images_keep_the_residual_certified(self):
        # the image z^2 ~ 1e60 was rounded at DPS + guard = 71 digits, and
        # word (2,)'s residual read 1.6e-12, over RESIDUAL_TOL
        res = count_periodic(UnicriticalMap(2, 1e60j), 1, radius=2e30)
        assert res.count == 2
        assert res.max_residual < 1e-20

    def test_points_stay_inside_disk(self):
        for k in (1, 3, 5):
            res = count_periodic(M6, k, radius=4.0)
            assert all(abs(complex(p)) < 4.0 for p in res.points)

    def test_word_point_bijection(self):
        res = count_periodic(M6, 6, radius=4.0)
        assert res.count == 64 == 2**6

    def test_k_validated(self):
        with pytest.raises(ValueError):
            count_periodic(M6, 0, radius=4.0)

    def test_nonconvergence_propagates(self, monkeypatch):
        monkeypatch.setattr(itinerary, "MAX_CYCLES", 1)
        with pytest.raises(NonConvergenceError):
            count_periodic(M6, 1, radius=4.0)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_non_integer_k_rejected(self, k):
        # both raised a TypeError from numpy
        with pytest.raises(ValueError, match="word length must be an integer"):
            count_periodic(M6, k, radius=4.0)

    def test_numpy_integer_k_accepted(self):
        assert count_periodic(M6, np.int64(2), radius=4.0).count == 4

    @pytest.mark.parametrize("d,k", [(np.int64(2**32), 2), (2**32, np.int64(2))])
    def test_numpy_integer_powers_do_not_wrap(self, monkeypatch, d, k):
        # (2^32)^2 wrapped round to 0 in int64 and passed the size guard; the
        # stub stops a wrapped guard before the solve
        def unreached(*args):
            raise AssertionError("the size guard passed")

        monkeypatch.setattr(itinerary, "_solve", unreached)
        with pytest.raises(ValueError, match="lower k"):
            count_periodic(UnicriticalMap(d, 10), k, radius=2.0)

    def test_all_words_distinct_points(self):
        res = count_periodic(M6, 4, radius=4.0)
        pts = [complex(p) for p in res.points]
        for i, j in itertools.combinations(range(len(pts)), 2):
            assert abs(pts[i] - pts[j]) > 1e-8


class TestOpenDefects:
    """Known wrong answers, each asserting the right one: the change that
    mends a defect turns its strict xfail into a failure to flip."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 8")
    def test_long_word_converges(self):
        # Newton on f^k(z) = z settles on a period-28 point that leaves the
        # word's orbit at step 26
        assert itinerary_point(M6, (1, 2) * 14, radius=4).converged

    @pytest.mark.xfail(strict=True, raises=NonConvergenceError, reason="ROADMAP item 8")
    def test_large_c_counts_every_point(self):
        # the polish's absolute stop rule never fires at |z| near 1e18
        assert count_periodic(UnicriticalMap(2, 0.25e36j), 2, radius=1e18).count == 4

    @pytest.mark.xfail(strict=True, raises=NonConvergenceError, reason="ROADMAP item 16")
    def test_real_c_cubic_counts_every_point(self):
        # the cut arg(z - c) = 0 crosses the disk: word (3, 3, 3) finds no point
        assert count_periodic(UnicriticalMap(3, -8), 3, radius=3).count == 27
