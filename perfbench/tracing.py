"""Per-layer tracing of the shadowcover library, from outside the package.

A ``Tracer`` wraps chosen public functions of the package's modules and
records one span per call: layer name, start, end and the index of the
enclosing span.  ``from .lp import solve_lp`` copies the binding into the
importing module, so installing a wrapper rebinds the name in every
``shadowcover`` module that holds the original function, and restores all of
them on exit.  A few cheap, very hot functions are only counted.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from math import comb
from pathlib import Path

# (module, function) pairs that get a span per call, in report order.  The
# end-to-end metric each should move, and where:
#   counterexample.*, containment.sampled_shadow_cover -> op_p50_ms on shadows
#   polytope.project, polytope.hull_from_vertices, linalg.coordinate_map
#       -> ops_per_s and op_p50_ms on shadows; about 0 on contain, reliability
#   lp.* -> ops_per_s and latency on contain, ops_per_s on shadows; 0 on hull
#       and reliability
#   containment.* -> contain and shadows (fits_exactly and certificate_valid
#       are the library's own witness re-checks)
#   kernels.hull_facets -> ops_per_s on hull, setup_s on hull and contain
#   kernels.circuits, reliability.is_reliable, decomposability.is_decomposable
#       -> ops_per_s and op_p90_ms on reliability; about 0 elsewhere
#   decomposability.extract_factors -> ops_per_s on hull
SPANNED = (
    ("counterexample", "build_counterexample"),
    ("counterexample", "build_S"),
    ("containment", "sampled_shadow_cover"),
    ("containment", "translate_fit"),
    ("containment", "max_scale"),
    ("containment", "fits_exactly"),
    ("containment", "certificate_valid"),
    ("polytope", "project"),
    ("polytope", "hull_from_vertices"),
    ("linalg", "coordinate_map"),
    ("lp", "solve_lp"),
    ("lp", "verify_outcome"),
    ("kernels", "hull_facets"),
    ("kernels", "circuits"),
    ("reliability", "is_reliable"),
    ("decomposability", "is_decomposable"),
    ("decomposability", "extract_factors"),
)

# called tens of thousands of times per pipeline: a span each would cost
# more than the call, so these are counted only
COUNTED = (("kernels", "int_rank"),)


def _hull_points(counts, args, kwargs, result):
    points = kwargs.get("points", args[0] if args else ())
    counts["polytope.hull_from_vertices.points_in"] += len(points)


def _hull_facets(counts, args, kwargs, result):
    points = kwargs.get("points", args[0] if args else ())
    if points:
        counts["kernels.hull_facets.candidate_subsets"] += comb(
            len(points), len(points[0])
        )


def _solve_lp(counts, args, kwargs, result):
    problem = kwargs.get("p", args[0] if args else None)
    counts["lp.solve_lp.rows"] += len(problem.constraints)
    outcome = type(result).__name__.lower()
    counts[f"lp.solve_lp.{outcome}"] += 1


def _circuits_hook(search_space):
    def hook(counts, args, kwargs, result):
        vectors, min_size, max_size = args[:3]
        # the search ranges over subsets of size min_size..max_size, which
        # is reliability.search_space with rank = max_size - 1
        counts["kernels.circuits.subsets_bound"] += search_space(
            len(vectors), max_size - 1, min_size
        )
        counts["kernels.circuits.hits"] += len(result)

    return hook


EXTRA_COUNTS = {
    "polytope.hull_from_vertices": ("points_in",),
    "kernels.hull_facets": ("candidate_subsets",),
    "lp.solve_lp": ("rows", "optimal", "infeasible", "unbounded"),
    "kernels.circuits": ("subsets_bound", "hits"),
}


def layer_names():
    return [f"{mod}.{fn}" for mod, fn in SPANNED]


def count_metric_names():
    """Every deterministic count the trace reports, in report order."""
    out = []
    for layer in layer_names():
        out.append(f"{layer}.calls")
        out.extend(f"{layer}.{extra}" for extra in EXTRA_COUNTS.get(layer, ()))
    out.extend(f"{mod}.{fn}.calls" for mod, fn in COUNTED)
    return out


class Tracer:
    """Spans and counts for one traced phase; create one per phase."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.counts: dict[str, int] = {name: 0 for name in count_metric_names()}
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    def _span_wrapper(self, name, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key = f"{name}.calls"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
                counts[calls_key] += 1
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every traced function in all loaded shadowcover modules."""
        package = "shadowcover"
        reliability = sys.modules[f"{package}.reliability"]
        hooks = {
            "polytope.hull_from_vertices": _hull_points,
            "kernels.hull_facets": _hull_facets,
            "lp.solve_lp": _solve_lp,
            "kernels.circuits": _circuits_hook(reliability.search_space),
        }
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        replaced = []
        for mod_name, fn_name in SPANNED + COUNTED:
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            layer = f"{mod_name}.{fn_name}"
            if (mod_name, fn_name) in COUNTED:
                wrapper = self._count_wrapper(layer, original)
            else:
                wrapper = self._span_wrapper(layer, original, hooks.get(layer))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in replaced:
                setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in the layer itself, not in traced callees."""
        own = [0.0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            dur = end - start
            own[i] += dur
            if parent >= 0:
                own[parent] -= dur
        out = {name: 0.0 for name in self.names}
        for (name_id, _, _, _), t in zip(self.spans, own):
            out[self.names[name_id]] += t
        return out

    def to_doc(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                [name_id, round(start - self.t0, 9), round(end - self.t0, 9), parent]
                for name_id, start, end, parent in self.spans
            ],
        }


def write_spans(path: Path, phases: dict[str, Tracer]) -> None:
    """Write the recorded spans of each traced phase as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {phase: tracer.to_doc() for phase, tracer in phases.items()}
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
