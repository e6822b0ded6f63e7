"""orbitgrowth benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload landing-chebyshev --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Every workload runs in its own fresh
single-threaded process (worker.py); set-up is also measured in separate
processes that stop just before the first operation.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The lines before it give the environment, the failed operations
and every metric with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, REFERENCE_S, speed_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "orbitgrowth"

WORKLOADS = ("landing-chebyshev", "itinerary-cantor", "combinatorics-exact", "repro-cli")
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, extra: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py; returns the perf_counter reading just before the spawn
    (CLOCK_MONOTONIC, shared by all processes on Linux) and its JSON report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tally(passes: list[dict]) -> dict:
    """The result line's correct, attempted and failed over all passes.

    Every operation is either verified by its oracle or counted in failed.
    The run is correct when each failure is a known defect of the program
    (workloads.KNOWN_FAILURES, checked by the worker); any other failure is
    a wrong answer the benchmark does not expect.
    """
    return {
        "correct": not any(p["unexpected"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="orbitgrowth benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"no orbitgrowth sources at {PACKAGE}; run from a checkout\n")
        return 2

    setup_raw, setup = [], []
    for _ in range(0 if args.trace else SETUP_PROBES):
        before = speed_probe()
        spawned, probe = start_worker(args, ["--setup-only"], timeout=60)
        after = speed_probe()
        setup_raw.append(probe["ready"] - spawned)
        setup.append(setup_raw[-1] * REFERENCE_S / ((before + after) / 2))
    _, report = start_worker(args, [], timeout=WORKER_TIMEOUT_S)

    passes = report["passes"]
    timed = [p for p in passes if not p["traced"]]
    counts = tally(passes)
    attempted, failed = counts["attempted"], counts["failed"]
    env = {**report["env"], "nproc": len(os.sched_getaffinity(0)),
           "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
           "git_commit": git_commit(), "src_sha256": source_digest(),
           "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace}

    if args.trace:
        metrics = report["per_layer"]
        units = PER_LAYER
    else:
        # A pass's time is estimated operation by operation: each
        # operation's median over the passes, summed.
        wall = sum(map(statistics.median, zip(*(p["op_ref_s"] for p in timed))))
        metrics = {
            "wall_s": wall,
            "items_per_s": statistics.median(p["items"] for p in timed) / wall,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# passes {len(passes)} ({sum(p['traced'] for p in passes)} traced); pass times, "
          f"raw {[round(p['wall_s'], 4) for p in passes]}, "
          f"speed-corrected {[round(p['wall_ref_s'], 4) for p in passes]}")
    if setup:
        print(f"# setup times, raw {[round(s, 4) for s in setup_raw]}, "
              f"speed-corrected {[round(s, 4) for s in setup]}")
    failures = Counter(f"{label}: {detail}" for p in passes
                       for label, detail in p["failures"].items())
    for line, hits in failures.items():
        print(f"# FAILED x{hits} {line}")
    for label in sorted({label for p in passes for label in p["unexpected"]}):
        print(f"# UNEXPECTED failure of {label}; the run is not correct")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        **counts,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
