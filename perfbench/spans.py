"""In-memory span tracing around the package's functions, from outside.

A ``Tracer`` replaces selected functions of the ``orbit_localize`` modules
with wrappers that record a span (name, start, end, parent) per call and
update counters from the call's result.  Every module attribute bound to a
wrapped function is replaced, so calls through ``from .x import f`` copies
are traced too; ``uninstall`` puts the originals back.  Spans stay in
memory; ``summary`` reduces them when the traced pass ends.  A target
missing from the package is listed in ``missing``, and the benchmark counts
each as a failed operation, so a renamed or removed layer does not read as
a silent zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Span groups used for shares and for totals over nested calls.
REDUCTION = ("algebra.is_regular_semisimple", "algebra.reduce_to_cartan",
             "algebra.cartan_coordinates")
FIXEDPOINTS = ("fixedpoints.enumerate_fixed_points",
               "fixedpoints.closed_orbit_support",
               "fixedpoints.assign_multiplicities")
SUITES = ("algebra", "fixedpoints", "localize", "geometry", "oracle")


def _count_reduce(c, args, out):
    c["algebra.reduce_to_cartan.none"] += out is None


def _count_value(c, args, out):
    c["localize.terms"] += len(out.terms)


def _count_grid(c, args, out):
    for r in out:
        if r.degenerate:
            c["localize.rows.degenerate"] += 1
        elif r.conjugacy == "outside":
            c["localize.rows.outside"] += 1
        else:
            c["localize.rows.ok"] += 1


def _count_orbit(c, args, out):
    c["fixedpoints.count"] += len(out.fixed_points)


def _count_haar(c, args, out):
    n = out.orbit.algebra.n
    dim = out.orbit.algebra.dim
    c["oracle.haar_orbit_sample.samples"] += out.count
    # Computed, not measured: per sample the complex Ginibre draw, its Q
    # factor and the conjugated carrier (16 n^2 bytes each) plus the real
    # coordinate row (8 dim bytes).
    c["oracle.haar_bytes_computed"] += out.count * (3 * 16 * n * n + 8 * dim)


def _count_mc(c, args, out):
    c["oracle.mc_fourier_integral.sample_evals"] += out.count


def _count_damped(c, args, out):
    c["oracle.damped_oscillatory_integral.nodes"] += out.s_nodes * out.phi_nodes


# (module, attribute, span name, counter update)
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("algebra", "build_algebra", "algebra.build_algebra", None),
    ("algebra", "element", "algebra.element", None),
    ("algebra", "is_regular_semisimple", "algebra.is_regular_semisimple", None),
    ("algebra", "reduce_to_cartan", "algebra.reduce_to_cartan", _count_reduce),
    ("algebra", "cartan_coordinates", "algebra.cartan_coordinates", None),
    ("localize", "make_orbit", "localize.make_orbit", _count_orbit),
    ("localize", "fourier_value", "localize.fourier_value", _count_value),
    ("localize", "fourier_grid", "localize.fourier_grid", _count_grid),
    ("fixedpoints", "enumerate_fixed_points", FIXEDPOINTS[0], None),
    ("fixedpoints", "closed_orbit_support", FIXEDPOINTS[1], None),
    ("fixedpoints", "assign_multiplicities", FIXEDPOINTS[2], None),
    ("oracle", "haar_orbit_sample", "oracle.haar_orbit_sample", _count_haar),
    ("oracle", "mc_fourier_integral", "oracle.mc_fourier_integral", _count_mc),
    ("oracle", "calibrate", "oracle.calibrate", None),
    ("oracle", "damped_oscillatory_integral",
     "oracle.damped_oscillatory_integral", _count_damped),
    ("suites", "run_suite", "suites.run_suite", None),
] + [("suites", f"_{s}_suite", f"suites.{s}", None) for s in SUITES]

GEOMETRY_FUNCTIONS = (
    "flag_point", "cotangent_point", "scale_cotangent", "group_action",
    "moment", "weight_at", "twisted_moment", "twisted_moment_inverse",
    "orbit_image_check", "fiber_structure_check", "cycle_scaling_limit",
)


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []     # span names whose function was not found
        self.replaced: list[tuple] = []  # (module, attribute, original)

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count is not None:
                count(counters, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded module of the package."""
        import importlib

        modules = {}
        for short in ("algebra", "fixedpoints", "localize", "oracle",
                      "geometry_sl2", "suites", "cli"):
            try:
                modules[short] = importlib.import_module(f"orbit_localize.{short}")
            except ModuleNotFoundError:
                continue
        targets = list(TARGETS) + [
            ("geometry_sl2", f, f"geometry_sl2.{f}", None)
            for f in GEOMETRY_FUNCTIONS
        ]
        loaded = [m for k, m in sys.modules.items()
                  if m is not None and (k == "orbit_localize"
                                        or k.startswith("orbit_localize."))]
        self.missing = []
        for short, attr, name, count in targets:
            fn = getattr(modules.get(short), attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, fn, count)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self.replaced.append((mod, key, fn))

    def uninstall(self) -> None:
        """Put the original functions back and drop the recorded spans."""
        for mod, key, fn in reversed(self.replaced):
            setattr(mod, key, fn)
        self.replaced = []
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus grouped totals."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        under_grid = [False] * n
        under_reduction = [False] * n
        under_geometry = [False] * n
        under_fixedpoints = [False] * n
        under_oracle_suites = [False] * n
        by_name: dict[str, list] = {}
        groups = Counter()
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                pname = spans[parent][0]
                child[parent] += dur[i]
                under_grid[i] = under_grid[parent] or pname == "localize.fourier_grid"
                under_reduction[i] = under_reduction[parent] or pname in REDUCTION
                under_geometry[i] = under_geometry[parent] or pname.startswith("geometry_sl2.")
                under_fixedpoints[i] = under_fixedpoints[parent] or pname in FIXEDPOINTS
                under_oracle_suites[i] = under_oracle_suites[parent] or pname.startswith(
                    ("oracle.", "suites."))
            if name in REDUCTION and not under_reduction[i] and under_grid[i]:
                groups["grid.reduction_s"] += dur[i]
            if name.startswith("geometry_sl2.") and not under_geometry[i]:
                groups["geometry_sl2.s"] += dur[i]
            if name in FIXEDPOINTS and not under_fixedpoints[i]:
                groups["fixedpoints.enumerate.s"] += dur[i]
            if name.startswith(("oracle.", "suites.")) and not under_oracle_suites[i]:
                groups["oracle_suites.s"] += dur[i]
        for i, (name, _, _, _) in enumerate(spans):
            self_s = dur[i] - child[i]
            rec = by_name.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dur[i]
            rec[2] += self_s
            if name == "localize.fourier_value" and under_grid[i]:
                groups["grid.fourier_value_self_s"] += self_s
        return {
            "spans": n,
            "by_name": by_name,
            "groups": dict(groups),
            "counters": dict(self.counters),
        }
