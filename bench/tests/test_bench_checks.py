"""The benchmark's own tests: every oracle accepts the right answer and rejects
a wrong one, the tracer restores what it patches, and BENCHMARK.json agrees
with the code.  Small inputs only; no workload is run in full."""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from orbitgrowth import noncrossing, rays, stars  # noqa: E402
from orbitgrowth.circle import Angle  # noqa: E402
from orbitgrowth.dynamics import UnicriticalMap  # noqa: E402
from orbitgrowth.itinerary import PeriodicPointCount, count_periodic  # noqa: E402
from orbitgrowth.noncrossing import enumerate_valid  # noqa: E402
from orbitgrowth.rate import rate_estimate  # noqa: E402
from orbitgrowth.rays import LandingClassification, RayTrace, classify_landing  # noqa: E402


def exact_chebyshev_classification(nu: int) -> LandingClassification:
    """A correct classification for z^2-2 built from the closed form, without tracing."""
    n = 2**nu - 1
    angles = [Angle(j, n) for j in range(n)]
    traces = {}
    for a in angles:
        z = complex(2 * math.cos(2 * math.pi * a))
        traces[a] = RayTrace(angle=a, points=[z], landing=z, converged=True, residual=0.0,
                             step_residuals=[0.0])
    classes = [[angles[0]]] + [[angles[j], angles[n - j]] for j in range(1, n // 2 + 1)]
    return LandingClassification(
        map=wl.CHEBYSHEV, nu=nu, classes=classes,
        representatives=[traces[c[0]].landing for c in classes], unresolved=[],
        unreliable=False, max_class_diameter=0.0, traces=traces)


def merge_first_classes(cls: LandingClassification) -> LandingClassification:
    merged = [sorted(cls.classes[0] + cls.classes[1])] + cls.classes[2:]
    return dataclasses.replace(cls, classes=merged)


# -- landing ------------------------------------------------------------------

def test_landing_oracle_accepts_the_traced_answer():
    cls = classify_landing(wl.CHEBYSHEV, 5)
    assert wl.check_landing(5, cls) == wl.Verdict(True, 31)


def test_landing_oracle_rejects_4095_classes_at_nu_13():
    good = exact_chebyshev_classification(13)
    assert wl.check_landing(13, good).ok
    bad = merge_first_classes(good)
    assert bad.class_count == 4095
    verdict = wl.check_landing(13, bad)
    assert not verdict.ok and verdict.items == 0
    assert "4095 classes, expected 4096" in verdict.detail


def test_landing_oracle_rejects_a_misplaced_landing_point():
    cls = exact_chebyshev_classification(4)
    a = Angle(1, 15)
    moved = dataclasses.replace(cls.traces[a], landing=cls.traces[a].landing + 1e-4)
    verdict = wl.check_landing(4, dataclasses.replace(cls, traces={**cls.traces, a: moved}))
    assert not verdict.ok and "2cos" in verdict.detail


def test_landing_oracle_rejects_unresolved_rays():
    cls = exact_chebyshev_classification(4)
    a = Angle(0)
    lost = dataclasses.replace(cls, classes=cls.classes[1:], unresolved=[a])
    assert not wl.check_landing(4, lost).ok


# -- itinerary ----------------------------------------------------------------

@pytest.fixture(scope="module")
def cantor_k4():
    return count_periodic(UnicriticalMap(2, -6 + 0j), 4, radius=wl.CANTOR_RADIUS)


def test_count_oracle_accepts_the_engine_answer(cantor_k4):
    assert wl.check_count(4, -6 + 0j, cantor_k4) == wl.Verdict(True, 16)


def test_count_oracle_rejects_2k_minus_1_points(cantor_k4):
    short = PeriodicPointCount(k=4, count=15, points=cantor_k4.points[:-1],
                               max_residual=cantor_k4.max_residual)
    verdict = wl.check_count(4, -6 + 0j, short)
    assert not verdict.ok and "count 15" in verdict.detail


def test_count_oracle_rejects_a_point_off_the_cycle(cantor_k4):
    points = list(cantor_k4.points)
    points[0] = points[0] + 1e-6
    moved = dataclasses.replace(cantor_k4, points=points)
    assert "residual" in wl.check_count(4, -6 + 0j, moved).detail


def test_count_oracle_rejects_a_repeated_point(cantor_k4):
    points = list(cantor_k4.points)
    points[1] = points[0]
    assert "coincide" in wl.check_count(4, -6 + 0j, dataclasses.replace(cantor_k4, points=points)).detail


def test_rate_oracle():
    samples = [(k, 2**k) for k in wl.CANTOR_KS]
    est = rate_estimate(2, samples)
    assert wl.check_rate((samples, est)).ok
    assert not wl.check_rate((samples[:-1], rate_estimate(2, samples[:-1]))).ok
    off = dataclasses.replace(est, estimate=math.nextafter(est.estimate, 0))
    assert "!= log 2" in wl.check_rate((samples, off)).detail


def test_cantor_parameter_keeps_modulus_and_avoids_the_real_axis():
    assert wl.cantor_parameter(0) == -6 + 0j
    for seed in range(1, 50):
        c = wl.cantor_parameter(seed)
        assert abs(abs(c) - 6) < 1e-12
        assert 35 <= abs(math.degrees(math.atan2(c.imag, c.real))) <= 55
    assert wl.cantor_parameter(7) == wl.cantor_parameter(7)


# -- combinatorics ------------------------------------------------------------

def test_grid_oracle_accepts_and_rejects():
    rows = wl.grid_sweep(4)
    assert wl.check_grid(4, rows) == wl.Verdict(True, 46)
    fam, maximal, brute = rows[5]
    flipped = rows[:5] + [(fam, not maximal, brute)] + rows[6:]
    assert not wl.check_grid(4, flipped).ok
    disagree = rows[:5] + [(fam, maximal, (not brute[0],) + brute[1:])] + rows[6:]
    assert "1 brute-force disagreements" in wl.check_grid(4, disagree).detail
    assert "45 families" in wl.check_grid(4, rows[:-1]).detail


def test_grid_oracle_rejects_interleaved_or_cyclic_families():
    e = stars.named_example_stars()
    cyclic = stars.StarSet(4, [e["E1"], e["E2"], e["E3"], e["E5"]])
    assert "cycle" in wl.check_grid(4, [(cyclic, False, (False,) * 3)]).detail
    crossing = stars.StarSet(4, [stars.Star(4, ["0", "1/2"]), stars.Star(4, ["1/4", "3/4"])])
    assert "interleaved" in wl.check_grid(4, [(crossing, False, (False,) * 3)]).detail


def test_partition_oracle_accepts_and_rejects():
    rels = list(enumerate_valid(7))
    assert wl.check_partitions(7, rels) == wl.Verdict(True, wl.motzkin(6))
    assert not wl.check_partitions(7, rels[1:]).ok
    crossing = [[1, 3], [2, 4], [5], [6], [7]]
    adjacent = [[1, 2], [3], [4], [5], [6], [7]]
    for blocks in (crossing, adjacent):
        fake = SimpleNamespace(blocks=tuple(tuple(b) for b in blocks))
        assert not wl.check_partitions(7, rels[:-1] + [fake]).ok


def test_motzkin_numbers():
    assert [wl.motzkin(n) for n in range(12)] == [1, 1, 2, 4, 9, 21, 51, 127, 323, 835,
                                                  2188, 5798]


# -- repro-cli ----------------------------------------------------------------

def test_cli_oracle_accepts_recorded_bytes_and_rejects_altered_ones():
    command = "repro --target stars"
    outcome = wl.run_cli(command)
    assert wl.check_cli(command, outcome) == wl.Verdict(True, 1)
    altered = outcome.stdout.replace(b"true", b"True", 1)
    assert "sha256" in wl.check_cli(command, wl.CliOutcome(0, altered)).detail
    assert "exit code 1" in wl.check_cli(command, wl.CliOutcome(1, outcome.stdout)).detail


def test_bad_cli_flags_are_a_nonzero_exit_not_a_crash():
    assert wl.run_cli("repro --target nowhere").code == 2


# -- tracer -------------------------------------------------------------------

def test_tracer_counts_spans_and_restores_the_originals():
    original = stars.disjoint
    e = stars.named_example_stars()
    family = stars.StarSet(4, [e["E1"], e["E2"], e["E3"]])
    tracer = Tracer(wl.OBSERVERS)
    with tracer.installed():
        assert stars.disjoint is not original
        assert stars.is_maximal(family)
        rels = list(noncrossing.enumerate_valid(5))
    assert stars.disjoint is original
    assert tracer.calls["stars.is_maximal"] == 1
    assert tracer.calls["stars.disjoint"] == 3
    assert tracer.calls["noncrossing.find_violation"] == len(rels)
    assert tracer.counters["noncrossing.partitions"] == len(rels)
    assert all(v >= 0 for v in tracer.self_s.values())


def test_layer_metrics_account_for_the_traced_wall():
    tracer = Tracer(wl.OBSERVERS)
    with tracer.installed():
        rays.classify_landing(wl.CHEBYSHEV, 4)
    out = layer_metrics(tracer, [{"wall_s": 1.0, "wall_ref_s": 1.0}],
                        [{"wall_s": 0.9, "wall_ref_s": 0.9}])
    assert set(out) == set(metrics.PER_LAYER)
    assert out["rays.rays"] == 15 and out["rays.landed_frac"] == 1.0
    assert out["rays.sublevels"] == 15 * 48 * 8
    assert out["circle.calls"] >= 16          # periodic_angles plus one multiply per ray
    layers = sum(out[f"{layer}.self_s"] for layer in ("circle", "dynamics", "rays",
                                                       "itinerary", "stars", "noncrossing",
                                                       "svgplot")) + out["cli.main.self_s"]
    assert layers + out["trace.unspanned_s"] == pytest.approx(out["trace.wall_s"])
    assert out["trace.overhead_s"] == pytest.approx(0.1)


# -- BENCHMARK.json and the run script ----------------------------------------

def test_only_the_known_defect_keeps_a_failing_run_correct(cantor_k4):
    import worker

    merged = merge_first_classes(exact_chebyshev_classification(13))
    known = wl.Op("classify_landing(z^2-2, nu=13)", lambda: merged,
                  lambda cls: wl.check_landing(13, cls))
    short = dataclasses.replace(cantor_k4, count=15, points=cantor_k4.points[:-1])
    wrong = wl.Op("count_periodic(c=-6, k=4)", lambda: short,
                  lambda res: wl.check_count(4, -6 + 0j, res))

    def crash():
        raise RuntimeError("no landing")

    crashed = wl.Op("classify_landing(z^2-2, nu=13)", crash, lambda cls: wl.check_landing(13, cls))

    expected = worker.run_pass([known])
    assert run.tally([expected]) == {"correct": True, "attempted": 1, "failed": 1}
    for bad in (wrong, crashed):
        outcome = run.tally([expected, worker.run_pass([bad])])
        assert outcome == {"correct": False, "attempted": 2, "failed": 2}


def test_benchmark_json_matches_the_code():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


def test_seed_changes_only_the_order_of_operations():
    for build in wl.WORKLOADS.values():
        canonical = [op.label for op in build(0)]
        shuffled = [op.label for op in build(5)]
        if build is wl.build_cantor:
            canonical = [label.split(", k=")[-1] for label in canonical]
            shuffled = [label.split(", k=")[-1] for label in shuffled]
        assert sorted(canonical) == sorted(shuffled)
        assert [op.label for op in build(5)] == [op.label for op in build(5)]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "repro-cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
