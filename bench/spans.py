"""Spans around the public entry points of growlat's modules.

The benchmark wraps callables from its own files and edits nothing in the
program.  A span records a name, a start, an end and its parent span; a
span's self time is its duration minus the durations of its children.
Names bound by ``from .x import y`` are wrapped where they are looked up
(for example ``growlat.homogenize.relax_branch``), and callables imported at
call time (``scipy.sparse.linalg.spsolve``, ``scipy.optimize.minimize``) are
wrapped on their own module.  A callable that no longer exists is listed in
``Tracer.absent`` instead of raising.
"""

import functools
import importlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None       # index into Tracer.spans
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder that can patch module attributes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    def wrap(self, module: str, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a callable that records a span.

        ``observe(counts, original, args, kwargs)`` may call the original
        itself to count its inputs and outputs into the span's counts.
        """
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        original = getattr(owner, attr, None)
        if not callable(original):
            if f"{module}.{attr}" not in self.absent:
                self.absent.append(f"{module}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                if observe is None:
                    return original(*args, **kwargs)
                return observe(tracer.spans[index].counts, original, args, kwargs)
            finally:
                tracer.end(index)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and every span below it (spans are in start order)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


# ---------------------------------------------------------------------------
# What the benchmark wraps, layer by layer


def _count_elements(counts, original, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    counts["elements"] = counts.get("elements", 0) + int(getattr(x, "size", 1))
    return original(*args, **kwargs)


def _count_points(counts, original, args, kwargs):
    fs = args[1] if len(args) > 1 else kwargs["fs"]
    counts["points"] = math.prod(getattr(fs, "shape", ())[:-2])
    return original(*args, **kwargs)


def _count_edges(counts, original, args, kwargs):
    sample = original(*args, **kwargs)
    counts["edges"] = int(sample.n_edges)
    return sample


def _count_newton(counts, original, args, kwargs):
    report = original(*args, **kwargs)
    counts["steps"] = int(report.iterations)
    counts["converged"] = bool(report.converged)
    return report


def _count_lbfgs(counts, original, args, kwargs):
    result = original(*args, **kwargs)
    counts["iterations"] = int(getattr(result, "nit", 0))
    return result


def _count_rows(counts, original, args, kwargs):
    args = list(args)
    rows = args[2] if len(args) > 2 else kwargs.pop("rows")
    counts["rows"] = 0

    def counted():
        for row in rows:
            counts["rows"] += 1
            yield row

    if len(args) > 2:
        args[2] = counted()
    else:
        kwargs["rows"] = counted()
    return original(*args, **kwargs)


# (module, attribute, span name, observer); the span name's prefix is the
# layer, except that a "scipy." span belongs to the layer of its caller
ENTRY_POINTS = (
    ("growlat.lattice", "build_sample", "lattice.build_sample", _count_edges),
    ("growlat.solver", "build_sample", "lattice.build_sample", _count_edges),
    ("growlat.homogenize", "relax_branch", "solver.relax_branch", _count_newton),
    ("growlat.solver", "relax_branch", "solver.relax_branch", _count_newton),
    ("growlat.homogenize", "minimize", "solver.minimize", None),
    ("growlat.solver", "minimize", "solver.minimize", None),
    ("growlat.solver", "energy_and_gradient", "solver.energy_and_gradient", None),
    ("scipy.sparse.linalg", "spsolve", "scipy.spsolve", None),
    ("scipy.optimize", "minimize", "scipy.minimize", _count_lbfgs),
    ("growlat.homogenize", "measured_energies", "homogenize.measured_energies", None),
    ("growlat.homogenize", "fit_growth", "homogenize.fit", None),
    ("growlat.homogenize", "fit_rest_lengths", "homogenize.fit", None),
    ("growlat.homogenize", "profile_energy", "homogenize.profile_energy", _count_elements),
    ("growlat.continuum", "fractional_error_map", "continuum.error_map", None),
    ("growlat.continuum", "cauchy_born_energy_many", "continuum.cb_energy_many", _count_points),
    ("growlat.continuum", "ground_state", "continuum.ground_state", None),
    ("growlat.continuum", "decompose", "continuum.decompose", None),
    ("growlat.serialize", "write_csv", "serialize.write_csv", _count_rows),
    ("growlat.experiments", "write_csv", "serialize.write_csv", _count_rows),
    ("growlat.serialize", "write_json", "serialize.write_json", None),
    ("growlat.experiments", "write_json", "serialize.write_json", None),
    ("growlat.cli", "write_json", "serialize.write_json", None),
    ("growlat.experiments", "run_simulation", "experiments.run_simulation", None),
    ("growlat.experiments", "run_example_error_map", "experiments.run_example_error_map", None),
    ("growlat.experiments", "run_oned", "experiments.run_oned", None),
    ("growlat.experiments", "run_checks", "experiments.run_checks", None),
)


def install(tracer: Tracer) -> None:
    for module, attr, name, observe in ENTRY_POINTS:
        tracer.wrap(module, attr, name, observe)


# ---------------------------------------------------------------------------
# Per-layer metrics of traced passes

LAYERS = ("bench", "cli", "experiments", "homogenize", "solver", "continuum", "lattice", "serialize")
COMMANDS = ("simulate", "check", "error-map", "oned")

# (name, unit, better); every traced run prints all of them, with 0 for a
# layer the workload does not reach
PER_LAYER = (
    ("lattice.build_sample_s", "s", "lower"),
    ("lattice.edges", "count", "lower"),
    ("solver.spsolve_s", "s", "lower"),
    ("solver.spsolve_calls", "count", "lower"),
    ("solver.spsolve_ms_per_call", "ms", "lower"),
    ("solver.newton_self_s", "s", "lower"),
    ("solver.newton_steps", "count", "lower"),
    ("solver.newton_steps_in_failed", "count", "lower"),
    ("solver.useful_step_share", "ratio", "higher"),
    ("solver.step_ms", "ms", "lower"),
    ("solver.relax_ms_p50", "ms", "lower"),
    ("solver.relax_ms_p90", "ms", "lower"),
    ("solver.energy_grad_s", "s", "lower"),
    ("solver.energy_grad_calls", "count", "lower"),
    ("solver.minimize_s", "s", "lower"),
    ("solver.lbfgs_iterations", "count", "lower"),
    ("solver.lbfgs_restarts", "count", "lower"),
    ("homogenize.fit_s", "s", "lower"),
    ("homogenize.fit_calls", "count", "lower"),
    ("homogenize.model_evals", "count", "lower"),
    ("homogenize.measured_energies_s", "s", "lower"),
    ("homogenize.fit_sse", "1", "lower"),
    ("continuum.error_map_s", "s", "lower"),
    ("continuum.cb_energy_many_s", "s", "lower"),
    ("continuum.cb_points", "count", "lower"),
    ("continuum.ground_state_s", "s", "lower"),
    ("continuum.decompose_s", "s", "lower"),
    ("continuum.decompose_calls", "count", "lower"),
    ("serialize.write_csv_s", "s", "lower"),
    ("serialize.rows_written", "count", "lower"),
    *((f"experiments.command_s.{c}", "s", "lower") for c in COMMANDS),
    *((f"self_s.{layer}", "s", "lower") for layer in LAYERS),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def _ratio(num, den):
    return num / den if den else 0.0


def _under(spans, i, name):
    """Whether span i has an ancestor called ``name``."""
    parent = spans[i].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _layer(spans, i):
    while spans[i].name.startswith("scipy.") and spans[i].parent is not None:
        i = spans[i].parent
    return spans[i].name.split(".", 1)[0]


def pass_metrics(spans: list[Span], root: int, own: list[float]) -> dict:
    """Per-layer figures of the pass whose root span is ``root``."""
    ids = subtree(spans, root)
    by_name: dict[str, list[int]] = {}
    for i in ids:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def summed(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ()))

    relax = by_name.get("solver.relax_branch", [])
    relax_ms = [1e3 * spans[i].duration for i in relax]
    steps = summed("solver.relax_branch", "steps")
    failed_steps = sum(spans[i].counts.get("steps", 0) for i in relax if not spans[i].counts.get("converged", True))
    lbfgs = [i for i in by_name.get("scipy.minimize", []) if _under(spans, i, "solver.minimize")]
    out = {
        "solver.spsolve_s": total("scipy.spsolve"),
        "solver.spsolve_calls": calls("scipy.spsolve"),
        "solver.spsolve_ms_per_call": 1e3 * _ratio(total("scipy.spsolve"), calls("scipy.spsolve")),
        "solver.newton_self_s": sum(own[i] for i in relax),
        "solver.newton_steps": steps,
        "solver.newton_steps_in_failed": failed_steps,
        "solver.useful_step_share": _ratio(steps - failed_steps, steps),
        "solver.step_ms": 1e3 * _ratio(total("solver.relax_branch"), steps),
        "solver.relax_ms_p50": _percentile(relax_ms, 0.5),
        "solver.relax_ms_p90": _percentile(relax_ms, 0.9),
        "solver.energy_grad_s": total("solver.energy_and_gradient"),
        "solver.energy_grad_calls": calls("solver.energy_and_gradient"),
        "solver.minimize_s": total("solver.minimize"),
        "solver.lbfgs_iterations": sum(spans[i].counts.get("iterations", 0) for i in lbfgs),
        "solver.lbfgs_restarts": max(0, len(lbfgs) - calls("solver.minimize")),
        "homogenize.fit_s": total("homogenize.fit"),
        "homogenize.fit_calls": calls("homogenize.fit"),
        "homogenize.model_evals": summed("homogenize.profile_energy", "elements"),
        "homogenize.measured_energies_s": total("homogenize.measured_energies"),
        "continuum.error_map_s": total("continuum.error_map"),
        "continuum.cb_energy_many_s": total("continuum.cb_energy_many"),
        "continuum.cb_points": summed("continuum.cb_energy_many", "points"),
        "continuum.ground_state_s": total("continuum.ground_state"),
        "continuum.decompose_s": total("continuum.decompose"),
        "continuum.decompose_calls": calls("continuum.decompose"),
        "serialize.write_csv_s": total("serialize.write_csv"),
        "serialize.rows_written": summed("serialize.write_csv", "rows"),
    }
    for command in COMMANDS:
        out[f"experiments.command_s.{command}"] = sum(
            spans[i].duration for i in by_name.get("cli.main", ()) if spans[i].counts.get("command") == command
        )
    for layer in LAYERS:
        out[f"self_s.{layer}"] = sum(own[i] for i in ids if _layer(spans, i) == layer)
    # self times of a subtree add up to its root's duration, so the program's
    # layers account for all of the pass except the benchmark's own code
    out["trace.wall_s"] = spans[root].duration
    out["trace.unattributed_share"] = _ratio(out["self_s.bench"], out["trace.wall_s"])
    return out


def layer_metrics(tracer: Tracer, roots: list[int], untraced_walls: list[float], fit_sse: float) -> dict:
    """Medians over the traced passes of every PER_LAYER metric."""
    own = self_times(tracer.spans)
    per_pass = [pass_metrics(tracer.spans, r, own) for r in roots]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    builds = [s for s in tracer.spans if s.name == "lattice.build_sample"]
    out["lattice.build_sample_s"] = statistics.median(s.duration for s in builds) if builds else 0.0
    out["lattice.edges"] = max((s.counts.get("edges", 0) for s in builds), default=0)
    out["homogenize.fit_sse"] = fit_sse
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return {name: out[name] for name, _, _ in PER_LAYER}
