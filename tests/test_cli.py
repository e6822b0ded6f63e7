import hashlib
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from pathlib import Path

from orbitgrowth import ItineraryConfig, RayConfig
from orbitgrowth import cli
from orbitgrowth.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def capture(capsys, argv, expect=0):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expect, out
    return out


class TestStarsVerb:
    def test_named_maximal_family(self, capsys):
        out = capture(capsys, ["stars", "--d", "4", "--check", "{E1,E2,E3}"])
        report = json.loads(out)
        assert report["maximal"] is True
        assert report["pairwise_disjoint"] is True
        assert report["sum_multiplicities"] == 3

    def test_named_cycle(self, capsys):
        out = capture(capsys, ["stars", "--d", "4", "--check", "{E1,E2,E3,E5}"])
        report = json.loads(out)
        assert report["acyclic"] is False
        assert report["maximal"] is False

    def test_json_payload_with_oracle(self, capsys):
        payload = json.dumps([["1/2", "3/4"], ["0/1", "1/2"]])
        out = capture(
            capsys, ["stars", "--d", "4", "--check", payload, "--oracle"]
        )
        report = json.loads(out)
        assert report["maximal"] is False
        assert report["oracle_maximal"] is False

    def test_invalid_star_exits_one(self, capsys):
        payload = json.dumps([["0/1", "1/3"]])
        assert main(["stars", "--d", "4", "--check", payload]) == 1

    def test_named_stars_need_degree_four(self, capsys):
        assert main(["stars", "--d", "5", "--check", "{E1}"]) == 1

    def test_determinism(self, capsys):
        argv = ["stars", "--d", "4", "--check", "{E1,E2,E3}"]
        assert capture(capsys, argv) == capture(capsys, argv)


class TestNcpVerb:
    def test_exhaustive_table(self, capsys):
        out = capture(capsys, ["ncp", "--n", "6", "--exhaustive"])
        lines = out.strip().split("\n")
        assert lines[0] == "n,valid_relations,min_classes,bound,status"
        assert lines[-1] == "6,21,4,4,PASS"
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_single_row_json(self, capsys):
        out = capture(capsys, ["ncp", "--n", "4", "--format", "json"])
        rows = json.loads(out)["rows"]
        assert rows == [
            {"n": 4, "valid_relations": 4, "min_classes": 3, "bound": 3, "status": "PASS"}
        ]

    def test_validate_good(self, capsys):
        blocks = json.dumps({"n": 4, "blocks": [[1, 3], [2], [4]]})
        out = capture(capsys, ["ncp", "--validate", blocks, "--format", "json"])
        assert json.loads(out)["valid"] is True

    def test_validate_bad_exits_one(self, capsys):
        blocks = json.dumps({"n": 4, "blocks": [[1, 3], [2, 4]]})
        out = capture(capsys, ["ncp", "--validate", blocks, "--format", "json"], expect=1)
        report = json.loads(out)
        assert report["valid"] is False
        assert report["kind"] == "crossing"
        assert report["witness"] == [1, 2, 3, 4]

    def test_cap_guard(self, capsys):
        assert main(["ncp", "--n", "13"]) == 1


class TestRaysVerb:
    def test_json_trace(self, capsys):
        out = capture(
            capsys, ["rays", "--d", "2", "--c=-2+0j", "--angles", "1/3,0/1"]
        )
        traces = json.loads(out)
        assert len(traces) == 2
        landing = traces[0]["landing"]
        assert abs(landing[0] - (-1.0)) < 1e-6

    def test_svg_output(self, capsys):
        out = capture(
            capsys,
            ["rays", "--d", "2", "--c=-2+0j", "--angles", "1/3", "--format", "svg"],
        )
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")

    def test_svg_with_cloud_deterministic(self, capsys):
        argv = ["rays", "--d", "2", "--c=-2+0j", "--angles", "1/7,2/7,4/7",
                "--format", "svg", "--cloud"]
        assert capture(capsys, argv) == capture(capsys, argv)

    def test_colanding_svg_golden_digest(self, capsys):
        # the colanding figure of the benchmark, at a depth too shallow to
        # converge (exit 2); pins the pullback, the cloud and the SVG bytes
        out = capture(capsys, ["rays", "--d", "2", "--c=-0.110+0.6557j", "--angles",
                               "1/7,2/7,4/7", "--depth", "400", "--format", "svg",
                               "--cloud"], expect=2)
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0dac8f00b447b9376b9adef27a5a8c7e49ca11742a61a0ca3ea54bfc662d8905"
        )

    def test_union_of_orbits_too_large_exits_one_without_allocating(self, capsys):
        # each orbit has 7 angles, within the 17 this depth allows; together 21
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["rays", "--d", "2", "--c=-2+0j", "--angles",
                         "1/127,3/127,5/127", "--depth", "1000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6
        err = capsys.readouterr().err
        assert "orbits of 1/127, 3/127, 5/127" in err and "lower nu or depth" in err


class TestClassesVerb:
    def test_json_classes(self, capsys):
        out = capture(capsys, ["classes", "--d", "2", "--c=-2+0j", "--nu", "3"])
        report = json.loads(out)
        assert report["classes"] == [["0/1"], ["1/7", "6/7"], ["2/7", "5/7"], ["3/7", "4/7"]]
        assert report["noncrossing"] is True

    def test_csv_classes(self, capsys):
        out = capture(
            capsys,
            ["classes", "--d", "2", "--c=-2+0j", "--nu", "2", "--format", "csv"],
        )
        lines = out.strip().split("\n")
        assert lines[0] == "class,angles,landing_re,landing_im"
        assert len(lines) == 3

    def test_unreliable_exits_two(self, capsys):
        capture(capsys, ["classes", "--d", "2", "--c=0.25+0j", "--nu", "1"], expect=2)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "classes.json"
        code = main(["classes", "--d", "2", "--c=-2+0j", "--nu", "2", "-o", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["classes"] == [["0/1"], ["1/3", "2/3"]]

    def test_oversized_nu_exits_one_without_allocating(self, capsys):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["classes", "--d", "2", "--c=-2+0j", "--nu", "40"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6
        err = capsys.readouterr().err
        assert "period-40 angles" in err and "lower nu or depth" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ["classes", "--d", "2", "--c=-2+0j", "--nu", "3"]
        assert capture(capsys, argv) == capture(capsys, argv)


class TestItineraryVerb:
    def test_word(self, capsys):
        out = capture(
            capsys,
            ["itinerary", "--d", "2", "--c=-6+0j", "--radius", "4", "--word", "1,2"],
        )
        report = json.loads(out)
        assert report["result"]["converged"] is True
        assert abs(report["result"]["point"][0] - 1.7912878474779199) < 1e-12

    def test_count(self, capsys):
        out = capture(
            capsys,
            ["itinerary", "--d", "2", "--c=-6+0j", "--radius", "4", "--count", "3"],
        )
        report = json.loads(out)
        assert report["count"]["count"] == 8
        assert report["complete"] is True

    def test_hypothesis_failure_exits_one(self, capsys):
        capture(
            capsys,
            ["itinerary", "--d", "2", "--c=-1+0j", "--radius", "4", "--word", "1"],
            expect=1,
        )

    def test_count_golden_digest(self, capsys):
        # The points and every other byte match the output of the former
        # engine (a fixed-point loop on the mpmath inverse branches); only
        # max_residual differs, since Newton's method settles below its
        # 2.3389460834446372e-33.
        out = capture(
            capsys,
            ["itinerary", "--d", "2", "--c=-6+0j", "--radius", "4", "--count", "4"],
        ).encode()
        residual = float(re.search(rb'"max_residual": ([^,\n]+)', out).group(1))
        assert residual <= 2.3389460834446372e-33
        masked = re.sub(rb'"max_residual": [^,\n]+', b'"max_residual": null', out)
        assert hashlib.sha256(masked).hexdigest() == (
            "fa70c2e08d169564a603cda98a3ab533fcd6bb12727a2a5db5e707beefa77d09"
        )

    def test_oversized_count_exits_one_without_allocating(self, capsys):
        start = time.perf_counter()
        tracemalloc.start()
        try:
            code = main(["itinerary", "--d", "2", "--c=-6+0j", "--radius", "4",
                         "--count", "40"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert time.perf_counter() - start < 1.0
        assert peak < 1e6
        assert "lower k" in capsys.readouterr().err

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_nonpositive_count_exits_one(self, capsys, count):
        capture(
            capsys,
            ["itinerary", "--d", "2", "--c=-6+0j", "--radius", "4", "--count", count],
            expect=1,
        )


class TestRateVerb:
    def test_json(self, capsys):
        out = capture(
            capsys,
            ["rate", "--d", "2", "--samples", "1:2,2:4,3:8", "--eps", "1/2", "--nu", "5"],
        )
        report = json.loads(out)
        assert report["margin"] == 0.0
        assert report["interval_bound"]["classes_at_least"] == 8

    def test_csv(self, capsys):
        out = capture(
            capsys,
            ["rate", "--d", "2", "--samples", "2:2,3:4", "--format", "csv"],
        )
        lines = out.strip().split("\n")
        assert lines[0] == "nu,count,log_count_over_nu,target,margin"
        assert len(lines) == 3

    def test_bad_samples(self, capsys):
        assert main(["rate", "--d", "2", "--samples", "1:0"]) == 1

    @pytest.mark.parametrize("samples", ["", "3", "3:x", "1:2:3"])
    def test_malformed_samples_token_named(self, capsys, samples):
        assert main(["rate", "--d", "2", "--samples", samples]) == 1
        err = capsys.readouterr().err
        assert repr(samples) in err and "nu:count,..." in err


class TestReproVerb:
    def test_stars(self, capsys):
        out = capture(capsys, ["repro", "--target", "stars"])
        report = json.loads(out)["report"]
        assert report["maximal_E1_E2_E3"] is True
        assert report["cycle_E1_E2_E3_E5"] is True
        assert report["E3_E4_maximal"] is False
        assert report["oracle_agrees"] is True

    def test_chebyshev(self, capsys):
        out = capture(capsys, ["repro", "--target", "chebyshev"])
        report = json.loads(out)["report"]
        assert report["class_count"] == 4
        assert report["max_oracle_error"] < 1e-6

    def test_cantor(self, capsys):
        out = capture(capsys, ["repro", "--target", "cantor"])
        report = json.loads(out)["report"]
        assert report["hypothesis"]["ok"] is True
        assert report["counts"] == [[k, 2**k] for k in range(1, 7)]
        assert report["rate_attained"] is True

    def test_colanding(self, capsys):
        out = capture(capsys, ["repro", "--target", "colanding"])
        report = json.loads(out)
        assert report["target"] == "colanding"
        assert report["report"]["orbit_identified"] is True
        assert report["report"]["noncrossing"] is True
        assert build_parser().parse_args(["repro"]).target == "colanding"

    def test_colanding_golden_digest(self, capsys):
        out = capture(capsys, ["repro", "--target", "colanding"])
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "becb20c7dab5bc07892f32e4e1e603470d4dedfffca14d08f8542c6a31e0cd5c"
        )

    def test_crossing_classes_fail_colanding(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "classes_noncrossing", lambda classes: False)
        out = capture(capsys, ["repro", "--target", "colanding"], expect=2)
        assert json.loads(out)["report"]["noncrossing"] is False

    def test_cyclic_pair_fails_stars(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "has_cycle", lambda star_set: True)
        out = capture(capsys, ["repro", "--target", "stars"], expect=1)
        assert json.loads(out)["report"]["E3_E4_acyclic"] is False


class TestConfigSurface:
    def test_illegal_format_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["stars", "--d", "4", "--check", "{E1}", "--format", "svg"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["classes", "--c=-2+0j", "--grouping-tol", "0"],
        ["rays", "--c=-2+0j", "--angles", "1/3", "--landing-tol", "0"],
        ["itinerary", "--itinerary-tol", "0"],
    ], ids=["classes-grouping_tol", "rays-landing_tol", "itinerary-itinerary_tol"])
    def test_nonpositive_tolerance_rejected(self, capsys, argv):
        assert main(argv) == 1
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("verb, dest, default", [
        ("rays", "substeps", RayConfig().substeps),
        ("rays", "landing_tol", RayConfig().landing_tol),
        ("classes", "grouping_tol", RayConfig().grouping_tol),
        ("itinerary", "dps", ItineraryConfig().dps),
        ("itinerary", "itinerary_tol", ItineraryConfig().residual_tol),
        ("rays", "depth", RayConfig().depth),
        ("classes", "depth", RayConfig().depth),
    ], ids=["rays-substeps", "rays-landing_tol", "classes-grouping_tol",
            "itinerary-dps", "itinerary-itinerary_tol", "rays-depth", "classes-depth"])
    def test_default_is_the_library_default(self, verb, dest, default):
        assert getattr(build_parser().parse_args([verb]), dest) == default

    @pytest.mark.parametrize("depth", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["rays", "--c=-2+0j", "--angles", "1/3"],
        ["classes", "--nu", "3"],
    ], ids=["rays", "classes"])
    def test_nonpositive_depth_exits_one(self, capsys, argv, depth):
        # --depth goes through RayConfig's validation like every other knob
        assert main(argv + ["--depth", depth]) == 1
        assert "depth and substeps must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["repro", "--target", "stars"], 0),
        (["classes", "--c=0.25+0j", "--nu", "1"], 2),
    ], ids=["repro-stars", "classes-unreliable"])
    def test_module_entry_point_exit_status(self, argv, code):
        # python -m orbitgrowth.cli: the status main returns reaches the process
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-m", "orbitgrowth.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        json.loads(proc.stdout)

    def test_parser_rejects_unknown_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_parser_requires_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_zero_denominator_angle_exits_one(self):
        assert main(["rays", "--d", "2", "--c=-2+0j", "--angles", "1/0"]) == 1

    def test_unwritable_output_exits_one(self):
        argv = ["classes", "--d", "2", "--c=-2+0j", "--nu", "2",
                "-o", "/nonexistent-dir/out.json"]
        assert main(argv) == 1
