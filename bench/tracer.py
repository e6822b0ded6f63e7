"""Spans around the public functions of each orbitgrowth layer, from outside.

A traced function is replaced at every module attribute that names it (the
place where its callers look it up, e.g. ``orbitgrowth.stars.disjoint`` for
the calls inside ``stars`` and ``orbitgrowth.cli.disjoint`` for the CLI), so
nothing under ``src/`` is edited.  ``Tracer.installed()`` puts the wrappers in
and always restores the originals.

Spans are aggregated in memory per function as they close: call count and
self time, where self time is the span's duration minus the duration of the
traced spans it caused.  Individual spans are not kept, because the star
sweep alone opens about 280,000 of them per pass.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from collections import defaultdict

import orbitgrowth
from metrics import PER_LAYER
from orbitgrowth import circle, cli, dynamics, itinerary, noncrossing, rate, rays, stars, svgplot

# Public functions traced per layer.  Hot inner helpers that would dominate
# the tracing cost (itinerary.branch_root, the Angle and Star constructors)
# are left to the self time of their callers.
LAYERS = {
    "circle": (circle, ("multiply", "orbit", "periodic_angles", "angle_from_string",
                        "circle_dist", "cyclic_order", "exact_period")),
    "dynamics": (dynamics, ("escape_radius", "verify_disk_hypothesis")),
    "rays": (rays, ("trace_ray", "classify_landing", "classes_noncrossing",
                    "chebyshev_oracle")),
    "itinerary": (itinerary, ("itinerary_point", "count_periodic")),
    "stars": (stars, ("disjoint", "has_cycle", "is_maximal", "check_maximal_bruteforce",
                      "sum_multiplicities", "multiplicity", "quotient",
                      "named_example_stars", "enumerate_grid_star_sets")),
    "noncrossing": (noncrossing, ("find_violation", "validate", "class_count",
                                  "min_classes_bound", "extremal_example",
                                  "enumerate_valid", "min_classes")),
    "svgplot": (svgplot, ("julia_cloud", "render_ray_figure")),
    "cli": (cli, ("main",)),
}

# Every module whose namespace may hold a lookup of a traced function.
LOOKUP_MODULES = (orbitgrowth, circle, dynamics, rays, itinerary, stars, noncrossing,
                  svgplot, cli, rate)


class Tracer:
    """Per-function span statistics plus named counters, summed over the
    passes it traces."""

    def __init__(self, observers=None):
        """observers maps a traced name to fn(tracer, result, args, kwargs),
        called after each span of that name that returns normally."""
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[float] = []   # child time of each open span, innermost last
        self._observers = dict(observers or {})

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        perf = time.perf_counter
        open_spans = self._open
        calls, self_s = self.calls, self.self_s
        observer = self._observers.get(name)

        # Kept lean: the star sweep calls disjoint about 280,000 times a pass.
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[name] += elapsed - open_spans.pop()
                calls[name] += 1
                if open_spans:
                    open_spans[-1] += elapsed
            if observer is not None:
                observer(self, result, args, kwargs)
            return result

        span.__wrapped__ = fn
        return span

    def _wrap_generator(self, name: str, fn):
        # A generator's span is the sum of its resumptions, each charged to
        # the span that resumed it; the consumer's time between items is the
        # consumer's own.  The observer receives the number of items yielded.
        perf = time.perf_counter
        open_spans = self._open
        observer = self._observers.get(name)

        def span(*args, **kwargs):
            gen = fn(*args, **kwargs)
            yielded = 0
            try:
                while True:
                    open_spans.append(0.0)
                    start = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        elapsed = perf() - start
                        self.self_s[name] += elapsed - open_spans.pop()
                        if open_spans:
                            open_spans[-1] += elapsed
                    yielded += 1
                    yield item
            finally:
                gen.close()
                self.calls[name] += 1
                if observer is not None:
                    observer(self, yielded, args, kwargs)

        span.__wrapped__ = fn
        return span

    @contextlib.contextmanager
    def installed(self):
        """Replace every lookup of a traced function by its span wrapper."""
        wrappers = {}
        for layer, (module, names) in LAYERS.items():
            for fname in names:
                original = getattr(module, fname)
                wrappers[id(original)] = self._wrap(f"{layer}.{fname}", original)
        patched = []
        try:
            for module in LOOKUP_MODULES:
                for attr, value in list(vars(module).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        patched.append((module, attr, value))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    @staticmethod
    def total(stats: dict[str, float], name: str) -> float:
        """Sum of a statistic over one function ("stars.disjoint") or a layer ("stars")."""
        return sum(v for k, v in stats.items() if k == name or k.startswith(name + "."))


def layer_metrics(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-pass means over the traced passes (the worst residual is a maximum).

    The layer self times and trace.unspanned_s add up to trace.wall_s, the
    mean traced pass.  trace.overhead_s compares the speed-corrected traced
    and untraced passes and states the difference in the traced passes' time.
    """
    n = len(traced)
    c = tracer.counters
    out = {}
    for name in PER_LAYER:
        base, kind = name.rsplit(".", 1)
        if kind == "self_s":
            out[name] = tracer.total(tracer.self_s, base) / n
        elif kind == "calls":
            out[name] = tracer.total(tracer.calls, base) / n
        else:
            out[name] = c[name] / n
    out["rays.landed_frac"] = c["rays.landed"] / c["rays.rays"] if c["rays.rays"] else 0.0
    out["itinerary.converged_frac"] = (c["itinerary.converged"] / c["itinerary.words"]
                                       if c["itinerary.words"] else 0.0)
    out["itinerary.max_residual"] = c["itinerary.max_residual"]
    out["trace.wall_s"] = sum(p["wall_s"] for p in traced) / n
    out["trace.unspanned_s"] = out["trace.wall_s"] - sum(
        tracer.total(tracer.self_s, layer) for layer in LAYERS) / n
    traced_ref = sum(p["wall_ref_s"] for p in traced) / n
    untraced_ref = sum(p["wall_ref_s"] for p in untraced) / len(untraced)
    out["trace.overhead_s"] = out["trace.wall_s"] * (1 - untraced_ref / traced_ref)
    return out
