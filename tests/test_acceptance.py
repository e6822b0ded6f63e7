"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The worked examples' inputs and pass rules are the
`repro` targets in `orbitgrowth.cli`: criteria 1, 5 and 7 run them through
`_REPRO` and pin the documented values of their reports, and the other
criteria's sweeps read the same maps.  Every tolerance is pinned here; the
time budgets are asserted along with the results.
"""

import math
import time
from fractions import Fraction

import numpy as np
from mpmath import mpc, workdps

from orbitgrowth import (
    Angle,
    chebyshev_oracle,
    check_maximal_bruteforce,
    classify_landing,
    count_periodic,
    enumerate_grid_star_sets,
    is_maximal,
    multiply,
    rate_estimate,
    trace_rays,
    verify_disk_hypothesis,
)
from orbitgrowth.cli import (_REPRO, CANTOR, CHEBYSHEV, COLANDING_CONFIG, COLANDING_MAP,
                             COLANDING_TRIPLE)


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float | None = None):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.2f} s)"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} over budget {budget}s: {elapsed:.2f}s"


def test_criterion_1_star_examples():
    start = time.time()
    report, code = _REPRO["stars"]()
    ok = code == 0 and report == {
        "maximal_E1_E2_E3": True, "cycle_E1_E2_E3_E5": True, "E3_E4_disjoint": True,
        "E3_E4_acyclic": True, "E3_E4_maximal": False, "oracle_agrees": True}
    _report(1, ok, "degree-4 star examples give the documented exact booleans",
            time.time() - start, budget=1.0)


def test_criterion_2_maximality_oracle_agreement():
    start = time.time()
    disagreements = 0
    families = 0
    for d in range(2, 7):
        for family in enumerate_grid_star_sets(d):
            families += 1
            expected = is_maximal(family)
            for refinement in (1, 2, 3):
                if check_maximal_bruteforce(family, refinement) != expected:
                    disagreements += 1
    ok = disagreements == 0 and families == 2682
    _report(2, ok,
            f"multiplicity count vs brute-force search: {families} families x 3 grids, "
            f"{disagreements} disagreements", time.time() - start, budget=60.0)


def test_criterion_3_class_count_bound_exhaustive():
    from orbitgrowth import class_count, enumerate_valid, min_classes_bound

    start = time.time()
    violations = 0
    sharp = True
    for n in range(1, 11):
        bound = min_classes_bound(n)
        counts = [class_count(rel) for rel in enumerate_valid(n)]
        violations += sum(1 for c in counts if c < bound)
        sharp = sharp and min(counts) == bound
    ok = violations == 0 and sharp
    _report(3, ok, "all valid partitions up to n=10 meet floor(n/2)+1, bound attained",
            time.time() - start, budget=60.0)


def test_criterion_4_chebyshev_oracle():
    start = time.time()
    worst = 0.0
    ok = True
    for nu in (2, 3, 5, 7):
        cls = classify_landing(CHEBYSHEV, nu)
        ok = ok and not cls.unresolved
        for a, t in cls.traces.items():
            worst = max(worst, abs(t.landing - chebyshev_oracle(a)))
        ok = ok and cls.class_count == 2 ** (nu - 1)
        for members in cls.classes:
            ok = ok and {Angle(1 - Fraction(a)) for a in members} == set(members)
    ok = ok and worst < 1e-6
    _report(4, ok,
            f"z^2-2 rays land on 2cos(2 pi theta) (max err {worst:.2e}), "
            "classes pair theta ~ 1-theta", time.time() - start, budget=120.0)


def test_criterion_5_colanding_orbit():
    start = time.time()
    report, code = _REPRO["colanding"]()
    # independent check: the common landing point is the repelling fixed
    # point (1 - sqrt(1-4c))/2 of the quadratic
    alpha = (1 - np.sqrt(complex(1 - 4 * COLANDING_MAP.c))) / 2
    traces = trace_rays(COLANDING_MAP, COLANDING_TRIPLE, config=COLANDING_CONFIG)
    near_alpha = all(t.converged and abs(t.landing - alpha) < 1e-4 for t in traces)
    ok = (code == 0 and report["orbit_identified"] is True and report["noncrossing"] is True
          and report["unresolved"] == [] and near_alpha)
    _report(5, ok, "angles 1/7, 2/7, 4/7 fall in one landing class; classes do not cross",
            time.time() - start, budget=60.0)


def test_criterion_6_itinerary_engine():
    start = time.time()
    ok = verify_disk_hypothesis(CANTOR, 4.0).ok
    worst_residual = 0.0
    results = {}
    for k in range(1, 13):
        res = count_periodic(CANTOR, k, radius=4.0)
        results[k] = res
        ok = ok and res.count == 2**k
    # independent residual check on the returned points at higher precision
    with workdps(60):
        c = mpc(-6)
        for k, res in results.items():
            for z in res.points:
                w = mpc(z)
                for _ in range(k):
                    w = w * w + c
                worst_residual = max(worst_residual, float(abs(w - z)))
    ok = ok and worst_residual < 1e-9
    # global root-finding oracle for short periods
    for k in range(1, 5):
        poly = [1, 0]
        for _ in range(k):
            poly = list(np.polymul(np.array(poly, dtype=object), np.array(poly, dtype=object)))
            poly[-1] += -6
        poly[-2] -= 1
        roots = np.roots(np.array(poly, dtype=np.float64))
        computed = np.array([complex(p) for p in results[k].points])
        ok = ok and len(roots) == len(computed)
        for r in roots:
            ok = ok and np.min(np.abs(computed - r)) < 1e-8
    _report(6, ok,
            f"2^k points for k=1..12, max |f^k(z)-z| = {worst_residual:.2e}, "
            "k<=4 matches global root-finding", time.time() - start, budget=10.0)


def test_criterion_7_growth_rate():
    start = time.time()
    observed = []
    for nu in range(2, 11):
        cls = classify_landing(CHEBYSHEV, nu)
        assert not cls.unresolved
        observed.append((nu, cls.class_count))
    est = rate_estimate(2, observed)
    cheb_ok = est.estimate >= math.log(2) - 0.08

    report, code = _REPRO["cantor"]()
    exact_ok = (code == 0 and report["hypothesis"]["ok"] is True
                and report["counts"] == [[k, 2**k] for k in range(1, 7)]
                and report["rate_estimate"] == math.log(2) and report["rate_attained"] is True)
    ok = cheb_ok and exact_ok
    _report(7, ok,
            f"class-count estimate {est.estimate:.4f} >= log 2 - 0.08; "
            "periodic-count estimate equals log 2 exactly", time.time() - start)


def test_criterion_8_semiconjugacy():
    start = time.time()
    worst = 0.0
    runs = [(CHEBYSHEV, nu, None) for nu in (2, 3, 5, 7)]
    runs.append((COLANDING_MAP, 3, COLANDING_CONFIG))
    for m, nu, config in runs:
        cls = classify_landing(m, nu, config=config)
        for a, t in cls.traces.items():
            if not t.converged:
                continue
            image = cls.traces[multiply(a, m.d)]
            if image.converged:
                worst = max(worst, abs(image.landing - m(t.landing)))
    ok = worst <= 1e-5
    _report(8, ok, f"|landing(d*theta) - f(landing(theta))| max {worst:.2e} <= 1e-5",
            time.time() - start)
