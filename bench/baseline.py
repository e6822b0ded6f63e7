"""Run every workload over several seeds, untraced and traced, and summarize.

    python3 bench/baseline.py --seeds 1,2,3 --out bench/BENCH_seed.json

Every workload runs untraced and traced on each seed.  Each run is one
`bench/run.py` invocation of BENCHMARK.json's run_seconds, and the runs go one
after another.  The table gives, per workload and metric, the median over the seeds and the spread:
the distance between the first and third quartile as a share of the median.
With --out, every run's result and environment is written to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RUN_SECONDS = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]

from run import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "log": lines[:-1], "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and quartile spread of each metric per workload and mode."""
    groups: dict[tuple, list[dict]] = {}
    for r in runs:
        groups.setdefault((r["workload"], r["trace"]), []).append(r["result"])
    summary = {}
    for (workload, trace), results in groups.items():
        table = {}
        for name, first in results[0]["metrics"].items():
            values = [res["metrics"][name]["value"] for res in results]
            med = statistics.median(values)
            q1 = q3 = spread = None
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(med) if med else None
            table[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                           "spread": spread, "n": len(values)}
        attempted = sum(res["attempted"] for res in results)
        failed = sum(res["failed"] for res in results)
        table["fail_frac"] = {"unit": "frac", "median": failed / attempted, "q1": None,
                              "q3": None, "spread": None, "n": len(results)}
        summary[f"{workload} trace={trace}"] = table
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0", help="comma-separated workload seeds")
    parser.add_argument("--out", default=None, help="write all runs and the summary here")
    args = parser.parse_args(argv)

    runs = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            for seed in (int(s) for s in args.seeds.split(",")):
                runs.append(run_once(workload, seed, trace))
                res = runs[-1]["result"]
                print(f"# {workload} trace={trace} seed={seed}: "
                      f"{res['failed']}/{res['attempted']} failed", file=sys.stderr, flush=True)
    summary = summarize(runs)
    for group, table in summary.items():
        print(f"== {group}")
        for name, s in table.items():
            spread = "" if s["spread"] is None else f"  spread {s['spread']:.3f}"
            print(f"  {name:40s} {s['median']:.6g} {s['unit']}{spread}")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
