"""One workload in a fresh process: set up, run timed passes, check them.

run.py starts this script; it prints one JSON line with the pass timings,
the failed operations, peak RSS and, with --trace 1, the per-layer metrics.

A pass runs the workload's operations back to back (one closed-loop caller)
and is timed from the first operation to the last result; the oracle checks
run after the pass, outside the timed region.  A CPU-speed probe runs
between operations and, in untraced passes, during them (SpeedSampler); its
time is not counted.  Passes repeat until --seconds have elapsed.  With --trace 1 untraced and traced passes alternate, so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from metrics import REFERENCE_S, speed_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program():
    """Import orbitgrowth from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import orbitgrowth

    if Path(orbitgrowth.__file__).resolve().parent != (SRC / "orbitgrowth").resolve():
        raise SystemExit(f"orbitgrowth imported from {orbitgrowth.__file__}, not {SRC}")


class SpeedSampler:
    """Runs the speed probe every SAMPLE_EVERY_S seconds from a timer signal
    while an operation runs, so that drift within a long operation is seen.

    The probes' own time is kept in busy_s and subtracted from the operation.
    """

    SAMPLE_EVERY_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(speed_probe())
        self.busy_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self):
        self.samples.clear()
        self.busy_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once, then check the results.

    wall_s is the sum of the operations' times.  op_ref_s rescales each
    operation's time by the mean of the speed probes taken just before and
    after it and, in untraced passes, during it.  Traced passes take no
    probes during an operation, which would land in the span self times.
    """
    from workloads import Verdict, is_known_failure

    outcomes = []
    wall = 0.0
    op_ref = []
    sampler = SpeedSampler()
    with tracer.installed() if tracer else contextlib.nullcontext():
        probe = speed_probe()
        for op in ops:
            with contextlib.nullcontext(sampler) if tracer else sampler:
                start = time.perf_counter()
                try:
                    outcome = (op, op.run(), None)
                except Exception as exc:  # a failed operation, reported below
                    outcome = (op, None, exc)
                elapsed = time.perf_counter() - start - sampler.busy_s
            outcomes.append(outcome)
            next_probe = speed_probe()
            wall += elapsed
            speed = statistics.fmean([probe, next_probe, *sampler.samples])
            op_ref.append(elapsed * REFERENCE_S / speed)
            probe = next_probe
    items = 0
    failures = {}
    unexpected = []
    for op, result, exc in outcomes:
        if exc is not None:
            verdict = Verdict(False, 0, f"{type(exc).__name__}: {exc}")
        else:
            try:
                verdict = op.check(result)
            except Exception as err:  # a result the oracle cannot read is wrong
                verdict = Verdict(False, 0, f"unreadable result ({type(err).__name__}: {err})")
        if verdict.ok:
            items += verdict.items
        else:
            failures[op.label] = verdict.detail
            if not is_known_failure(op.label, verdict.detail):
                unexpected.append(op.label)
    return {"wall_s": wall, "wall_ref_s": sum(op_ref), "op_ref_s": op_ref, "items": items,
            "attempted": len(outcomes), "failed": len(failures),
            "traced": tracer is not None, "failures": failures, "unexpected": unexpected}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, report when the first operation "
                             "would start, and exit")
    args = parser.parse_args(argv)

    import_program()
    import mpmath
    import numpy

    import workloads
    from tracer import Tracer, layer_metrics

    ops = workloads.WORKLOADS[args.workload](args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = Tracer(workloads.OBSERVERS) if args.trace else None
    passes = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(ops, tracer if traced else None))
        if time.perf_counter() - ready >= args.seconds and (tracer is None or len(passes) >= 2):
            break

    report = {
        "ready": ready,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "mpmath": mpmath.__version__},
    }
    if tracer is not None:
        report["per_layer"] = layer_metrics(
            tracer,
            [p for p in passes if p["traced"]],
            [p for p in passes if not p["traced"]],
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
