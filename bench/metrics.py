"""Names and units of the benchmark's metrics, as BENCHMARK.json lists them,
and the CPU-speed probe that corrects the end-to-end timings."""

import time

import numpy as np

# The speed probe takes REFERENCE_S seconds on the reference CPU: the 2-core
# virtual machine on which the benchmark was defined, at its median speed.
REFERENCE_S = 0.010
_SMALL = np.array([0.1, 0.2, 0.3])


def speed_probe() -> float:
    """Seconds this process needs right now for a fixed piece of work.

    The work is half a pure-Python loop and half numpy calls on a 3-element
    array, the two kinds of interpreter-bound work the workloads do.  The
    machine's effective speed drifts by about 20% over seconds (other
    tenants of the host); an operation timed between two probes is rescaled
    by REFERENCE_S / (mean probe time), which removes most of that drift.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(70_000):
        acc += i * i
    z = _SMALL
    for _ in range(1_500):
        z = np.abs(np.exp(1j * z)) * 0.5
    return time.perf_counter() - start


# Reported with --trace 0: one value per workload per run.
END_TO_END = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics with their units, in the order they are reported.
PER_LAYER = {
    "circle.calls": "count",
    "circle.self_s": "s",
    "dynamics.verify_disk_hypothesis.calls": "count",
    "dynamics.self_s": "s",
    "rays.classify_landing.self_s": "s",
    "rays.trace_ray.self_s": "s",
    "rays.self_s": "s",
    "rays.rays": "count",
    "rays.landed_frac": "frac",
    "rays.classes": "count",
    "rays.sublevels": "count",
    "itinerary.itinerary_point.self_s": "s",
    "itinerary.count_periodic.self_s": "s",
    "itinerary.self_s": "s",
    "itinerary.words": "count",
    "itinerary.cycles": "count",
    "itinerary.converged_frac": "frac",
    "itinerary.max_residual": "abs",
    "stars.enumerate_grid_star_sets.self_s": "s",
    "stars.is_maximal.self_s": "s",
    "stars.check_maximal_bruteforce.self_s": "s",
    "stars.self_s": "s",
    "stars.families": "count",
    "stars.disjoint.calls": "count",
    "noncrossing.enumerate_valid.self_s": "s",
    "noncrossing.find_violation.self_s": "s",
    "noncrossing.self_s": "s",
    "noncrossing.partitions": "count",
    "noncrossing.find_violation.calls": "count",
    "svgplot.julia_cloud.self_s": "s",
    "svgplot.render_ray_figure.self_s": "s",
    "svgplot.self_s": "s",
    "svgplot.svg_bytes": "bytes",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unspanned_s": "s",
    "trace.overhead_s": "s",
}
