"""Command-line front end: validation verbs, reproductions, reports, figures.

Verbs: stars, ncp, rays, classes, itinerary, rate, repro.  All output is
deterministic (sorted JSON keys, fixed CSV field order, seeded point clouds):
identical configurations produce byte-identical files.  Exit codes: 0 on
success, 1 on validation failure, 2 on numerical non-convergence.  argparse
also exits 2 on a malformed command line: an unknown verb or flag, or a
--format or --target value outside its choices.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import Counter
from fractions import Fraction

from .circle import Angle, angle_from_string
from .dynamics import UnicriticalMap, verify_disk_hypothesis
from .itinerary import NonConvergenceError, count_periodic, itinerary_point
from .noncrossing import (
    NCRelation,
    PartitionViolation,
    enumerate_valid,
    min_classes_bound,
)
from .rate import interval_class_bound, rate_estimate
from .rays import (
    RayConfig,
    chebyshev_oracle,
    classes_noncrossing,
    classify_landing,
    trace_rays,
)
from .stars import (
    Star,
    StarSet,
    check_maximal_bruteforce,
    has_cycle,
    is_maximal,
    named_example_stars,
    sum_multiplicities,
    disjoint,
)
from .svgplot import julia_cloud, render_ray_figure

def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(rows: list[dict], fields: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _parse_star_spec(d: int, text: str) -> StarSet:
    text = text.strip()
    if text.startswith("{") and "E" in text:
        names = [t.strip() for t in text.strip("{}").split(",") if t.strip()]
        catalog = named_example_stars()
        if d != 4:
            raise ValueError("named stars E1..E5 are the degree-4 examples; use --d 4")
        try:
            return StarSet(d, [catalog[name] for name in names])
        except KeyError as exc:
            raise ValueError(f"unknown star name {exc}; known: E1..E5") from None
    data = json.loads(text)
    if not (isinstance(data, list) and all(
            isinstance(pts, list) and all(isinstance(p, str) for p in pts) for pts in data)):
        raise ValueError('--check expects JSON [["p/q", ...], ...] or a named set')
    return StarSet(d, [Star(d, [angle_from_string(p) for p in pts]) for pts in data])


def _cmd_stars(args: argparse.Namespace) -> int:
    star_set = _parse_star_spec(args.d, args.check)
    pairwise = all(
        disjoint(a, b)
        for i, a in enumerate(star_set.stars)
        for b in star_set.stars[i + 1:]
    )
    acyclic = not has_cycle(star_set) if pairwise else None
    report = {
        "d": args.d,
        "stars": star_set.to_list(),
        "pairwise_disjoint": pairwise,
        "acyclic": acyclic,
        "sum_multiplicities": sum_multiplicities(star_set),
        "maximal": is_maximal(star_set),
    }
    if args.oracle:
        report["oracle_grid_refinement"] = args.grid_refinement
        report["oracle_maximal"] = (
            check_maximal_bruteforce(star_set, args.grid_refinement)
            if pairwise and acyclic
            else None
        )
    _emit(_json(report), args.output)
    return 0


def _cmd_ncp(args: argparse.Namespace) -> int:
    if args.validate_blocks is not None:
        data = json.loads(args.validate_blocks)
        if not isinstance(data, dict):
            raise ValueError('--validate expects JSON {"n": ..., "blocks": [[...], ...]}')
        try:
            rel = NCRelation(data["n"], data["blocks"])
        except PartitionViolation as exc:
            _emit(_json({"valid": False, "kind": exc.kind, "witness": list(exc.witness)}),
                  args.output)
            return 1
        _emit(_json({"valid": True, "relation": rel.to_dict(),
                     "class_count": len(rel.blocks)}), args.output)
        return 0

    ns = range(1, args.n + 1) if args.exhaustive and args.n >= 1 else [args.n]
    rows = []
    for n in ns:
        # one pass over the partitions, keeping at most n distinct class counts
        sizes = Counter(len(r.blocks) for r in enumerate_valid(n))
        lo, bound = min(sizes), min_classes_bound(n)
        rows.append(
            {"n": n, "valid_relations": sum(sizes.values()), "min_classes": lo,
             "bound": bound, "status": "PASS" if lo == bound else "FAIL"}
        )
    if args.fmt == "csv":
        _emit(_csv(rows, ["n", "valid_relations", "min_classes", "bound", "status"]),
              args.output)
    else:
        _emit(_json({"rows": rows}), args.output)
    return 0 if all(r["status"] == "PASS" for r in rows) else 1


def _cmd_rays(args: argparse.Namespace) -> int:
    m = UnicriticalMap(args.d, args.c)
    rc = RayConfig(depth=args.depth, substeps=args.substeps)
    traces = trace_rays(m, [angle_from_string(a) for a in args.angles.split(",")], config=rc)
    if args.fmt == "svg":
        cloud = julia_cloud(m) if args.cloud else None
        _emit(render_ray_figure(traces, cloud), args.output)
    else:
        _emit(_json([t.to_dict() for t in traces]), args.output)
    return 0 if all(t.converged for t in traces) else 2


def _cmd_classes(args: argparse.Namespace) -> int:
    m = UnicriticalMap(args.d, args.c)
    rc = RayConfig(depth=args.depth, substeps=args.substeps)
    cls = classify_landing(m, args.nu, config=rc)
    if args.fmt == "svg":
        if not cls.classes:
            raise NonConvergenceError(f"no ray landed at nu = {args.nu}: nothing to draw")
        traces = trace_rays(m, [c[0] for c in cls.classes], config=rc)    # one family
        cloud = julia_cloud(m) if args.cloud else None
        _emit(render_ray_figure(traces, cloud), args.output)
    elif args.fmt == "csv":
        rows = [
            {"class": i, "angles": " ".join(str(a) for a in members),
             "landing_re": rep.real, "landing_im": rep.imag}
            for i, (members, rep) in enumerate(zip(cls.classes, cls.representatives))
        ]
        _emit(_csv(rows, ["class", "angles", "landing_re", "landing_im"]), args.output)
    else:
        report = cls.to_dict()
        report["noncrossing"] = classes_noncrossing(cls.classes)
        _emit(_json(report), args.output)
    return 2 if cls.unreliable else 0


def _cmd_itinerary(args: argparse.Namespace) -> int:
    m = UnicriticalMap(args.d, args.c)
    report = verify_disk_hypothesis(m, args.radius)
    if not report.ok:
        sys.stderr.write(f"invariant-disk hypothesis fails: {report.to_dict()}\n")
        _emit(_json({"hypothesis": report.to_dict()}), args.output)
        return 1
    if args.word is not None:
        word = [int(t) for t in args.word.split(",")]
        res = itinerary_point(m, word, radius=args.radius)
        _emit(_json({"hypothesis": report.to_dict(), "result": res.to_dict()}),
              args.output)
        return 0 if res.converged else 2
    counted = count_periodic(m, args.k, radius=args.radius)
    expected = m.d**args.k
    _emit(_json({"hypothesis": report.to_dict(), "count": counted.to_dict(),
                 "expected": expected, "complete": counted.count == expected}),
          args.output)
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    pairs = []
    for tok in args.samples.split(","):
        try:
            nu, count = tok.split(":")
            pairs.append((int(nu), int(count)))
        except ValueError:
            raise ValueError(f'--samples token {tok!r}: expected "nu:count,..."') from None
    est = rate_estimate(args.d, pairs)
    if args.fmt == "csv":
        _emit(_csv(est.rows(), ["nu", "count", "log_count_over_nu", "target", "margin"]),
              args.output)
    else:
        report = est.to_dict()
        if args.eps is not None:
            report["interval_bound"] = {
                "eps": args.eps,
                "nu": args.nu,
                "classes_at_least": interval_class_bound(args.d, args.nu, Fraction(args.eps)),
            }
        _emit(_json(report), args.output)
    return 0


# The worked examples' inputs.  The acceptance criteria read these and call
# _REPRO, so each example and its pass rule is written here only.
CHEBYSHEV = UnicriticalMap(2, -2 + 0j)
CANTOR = UnicriticalMap(2, -6 + 0j)
COLANDING_MAP = UnicriticalMap(2, complex(-0.110, 0.6557))
COLANDING_CONFIG = RayConfig(depth=3200, substeps=4)
COLANDING_TRIPLE = (Angle(1, 7), Angle(2, 7), Angle(4, 7))


def _repro_colanding() -> tuple[dict, int]:
    cls = classify_landing(COLANDING_MAP, 3, config=COLANDING_CONFIG)
    joined = next((c for c in cls.classes if set(c) >= set(COLANDING_TRIPLE)), None)
    report = {
        "c": [COLANDING_MAP.c.real, COLANDING_MAP.c.imag],
        "nu": 3,
        "classes": [[str(a) for a in c] for c in cls.classes],
        "orbit_identified": joined is not None,
        "identified_class": None if joined is None else [str(a) for a in joined],
        "noncrossing": classes_noncrossing(cls.classes),
        "unresolved": [str(a) for a in cls.unresolved],
    }
    ok = (joined is not None and report["noncrossing"] and not cls.unresolved
          and not cls.unreliable)
    return report, 0 if ok else 2


def _repro_chebyshev() -> tuple[dict, int]:
    cls = classify_landing(CHEBYSHEV, 3)
    errors = [abs(t.landing - chebyshev_oracle(a)) for a, t in cls.traces.items() if t.converged]
    report = {
        "c": [CHEBYSHEV.c.real, CHEBYSHEV.c.imag],
        "nu": 3,
        "classes": [[str(a) for a in c] for c in cls.classes],
        "class_count": cls.class_count,
        "expected_class_count": 2 ** (3 - 1),
        "max_oracle_error": max(errors, default=None),
        "unresolved": [str(a) for a in cls.unresolved],
    }
    ok = cls.class_count == 4 and not cls.unresolved and errors and max(errors) < 1e-6
    return report, 0 if ok else 2


def _repro_stars() -> tuple[dict, int]:
    e = named_example_stars()
    maximal = StarSet(4, [e["E1"], e["E2"], e["E3"]])
    partial = StarSet(4, [e["E3"], e["E4"]])
    report = {
        "maximal_E1_E2_E3": is_maximal(maximal),
        "cycle_E1_E2_E3_E5": has_cycle(StarSet(4, [e["E1"], e["E2"], e["E3"], e["E5"]])),
        "E3_E4_disjoint": disjoint(e["E3"], e["E4"]),
        "E3_E4_acyclic": not has_cycle(partial),
        "E3_E4_maximal": is_maximal(partial),
        "oracle_agrees": check_maximal_bruteforce(maximal, 2) is True
        and check_maximal_bruteforce(partial, 2) is False,
    }
    ok = not report["E3_E4_maximal"] and all(
        v for k, v in report.items() if k != "E3_E4_maximal")
    return report, 0 if ok else 1


def _repro_cantor() -> tuple[dict, int]:
    hyp = verify_disk_hypothesis(CANTOR, 4.0)
    counts = [(k, count_periodic(CANTOR, k, radius=4.0).count) for k in range(1, 7)]
    est = rate_estimate(2, counts)
    report = {
        "c": [CANTOR.c.real, CANTOR.c.imag],
        "hypothesis": hyp.to_dict(),
        "counts": [list(p) for p in counts],
        "rate_estimate": est.estimate,
        "target": est.target,
        "rate_attained": est.estimate == est.target,
    }
    ok = hyp.ok and all(n == 2**k for k, n in counts) and report["rate_attained"]
    return report, 0 if ok else 2


_REPRO = {
    "colanding": _repro_colanding,
    "chebyshev": _repro_chebyshev,
    "stars": _repro_stars,
    "cantor": _repro_cantor,
}


def _cmd_repro(args: argparse.Namespace) -> int:
    report, code = _REPRO[args.target]()
    _emit(_json({"target": args.target, "report": report}), args.output)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitgrowth",
        description="Circle dynamics, star families, ray landing classes and "
        "periodic-point growth bounds for z -> z^d + c.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, func, fmt=("json",)):
        p.add_argument("--output", "-o", default=None, help="write here instead of stdout")
        p.add_argument("--format", dest="fmt", default=fmt[0], choices=fmt)
        p.set_defaults(func=func)

    def ray_flags(p):
        """The map and tracing flags shared by `rays` and `classes`."""
        p.add_argument("--d", type=int, default=2)
        p.add_argument("--c", type=complex, default=0j,
                       help='parameter as a Python complex; quote negatives as --c="-0.11+0.6557j"')
        p.add_argument("--depth", type=int, default=RayConfig.depth)
        p.add_argument("--substeps", type=int, default=RayConfig.substeps)
        p.add_argument("--cloud", action="store_true", help="add a Julia point cloud (svg)")

    p = sub.add_parser("stars", help="check a family of stars")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--check", required=True,
                   help='JSON [["0/1","1/4"],...] or named set like "{E1,E2,E3}"')
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force maximality search")
    p.add_argument("--grid-refinement", type=int, default=2)
    common(p, _cmd_stars)

    p = sub.add_parser("ncp", help="non-crossing no-adjacency partitions")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--exhaustive", action="store_true",
                   help="tabulate every n from 1 up to --n")
    p.add_argument("--validate", dest="validate_blocks", default=None,
                   help='JSON {"n": 4, "blocks": [[1,3],[2],[4]]}')
    common(p, _cmd_ncp, ("csv", "json"))

    p = sub.add_parser("rays", help="trace external rays")
    ray_flags(p)
    p.add_argument("--angles", default="1/7", help="comma-separated rational angles")
    common(p, _cmd_rays, ("json", "svg"))

    p = sub.add_parser("classes", help="landing classes of period-nu angles")
    ray_flags(p)
    p.add_argument("--nu", type=int, default=3)
    common(p, _cmd_classes, ("json", "csv", "svg"))

    p = sub.add_parser("itinerary", help="inverse-branch periodic points")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--c", type=complex, default=-6 + 0j)
    p.add_argument("--radius", type=float, default=4.0)
    p.add_argument("--word", default=None, help='cyclic branch word, e.g. "1,2"')
    p.add_argument("--count", dest="k", type=int, default=1,
                   help="count all points of period dividing K")
    common(p, _cmd_itinerary)

    p = sub.add_parser("rate", help="growth-rate estimate from per-period counts")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--samples", required=True, help='"nu:count,..." e.g. "1:2,2:4"')
    p.add_argument("--eps", default=None, help="arc length for the interval class bound")
    p.add_argument("--nu", type=int, default=3)
    common(p, _cmd_rate, ("json", "csv"))

    p = sub.add_parser("repro", help="re-run the documented worked examples")
    p.add_argument("--target", choices=_REPRO, default="colanding")
    common(p, _cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse argv and run its verb; returns the process exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        sys.stderr.write(f"non-convergence: {exc}\n")
        return 2
    except (ValueError, KeyError, ArithmeticError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
