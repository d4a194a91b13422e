"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one pass of operations in ``run_pass`` and reads back what the program
produced in ``outputs`` (outside the timed region).  The seed picks one of
``INPUT_SEEDS`` recorded growth fields, so every run is checked against a
recorded fingerprint.

Why these four (see README.md for the layer each one exercises):

- sim1-fit: the sim1 simulation through the CLI; the grid fit dominates and
  the solver takes no Newton step, so it shows fit changes and bypasses the
  solver.
- relax-n64: sim2's growth field at N = 64; the sparse solve dominates.
- relax-n16: the same scenario at N = 16 with 120 data; per-call overhead
  and Hessian assembly outweigh the small sparse solves.
- continuum-cli: check, error-map ex7 and oned through the CLI; Cauchy-Born
  kernel, L-BFGS and CSV output, with no Newton solve and no grid fit.
"""

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

INPUT_SEEDS = 4

SQRT2 = math.sqrt(2.0)
SIM2_REST = (1.0, 1.0, SQRT2, SQRT2)
SIM2_GROWTH_INTERVAL = (0.8, 1.2)


@dataclass
class PassResult:
    attempted: int
    failed: int                                   # ops that raised or exited nonzero unexpectedly
    indices: list = field(default_factory=list)       # data solved, in order
    unconverged: list = field(default_factory=list)   # data whose solve did not converge
    energies: list = field(default_factory=list)      # per-cell energy per datum (None if unconverged)
    notes: list = field(default_factory=list)


class ReportTap:
    """Keeps the SolveReport of every branch relaxation that
    ``homogenize.measured_energies`` makes, for the independent checks.

    It adds one Python call per solve and records no time.
    """

    def __init__(self):
        self.solves = []
        self._original = None

    def install(self):
        from growlat import homogenize

        original = getattr(homogenize, "relax_branch", None)
        if original is None:
            return False
        store = self.solves

        def tapped(sample, boundary, opts=None, **kwargs):
            report = original(sample, boundary, opts, **kwargs)
            store.append((sample, boundary.f, opts, report))
            return report

        self._original = original
        homogenize.relax_branch = tapped
        return True

    def remove(self):
        if self._original is not None:
            from growlat import homogenize

            homogenize.relax_branch = self._original
            self._original = None


class CliWorkload:
    """Subcommands run in-process through ``growlat.cli.main``."""

    def __init__(self, name, commands, solves_per_pass):
        self.name = name
        self.commands = commands
        self.solves_per_pass = solves_per_pass
        self.warmup_label = "1 pass"

    def setup(self, seed):
        # the subcommands import these lazily; importing them here keeps
        # first-import costs out of the timed passes
        import growlat.cli  # noqa: F401
        import scipy.integrate  # noqa: F401
        import scipy.optimize  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401

        self.seed = seed % INPUT_SEEDS

    def warmup(self, out_dir):
        return self.run_pass(out_dir)

    def run_pass(self, out_dir, tracer=None):
        from growlat import cli

        failed, notes = 0, []
        for command in self.commands:
            argv = ["--out", str(out_dir), "--seed", str(self.seed), *command]
            scope = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            printed = io.StringIO()
            try:
                with scope as span, contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                    if span is not None:
                        span.counts["command"] = command[0]
                    code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # an op that raises or exits is a failed op
                code = f"raised {type(exc).__name__}: {exc}"
            if code != 0:
                failed += 1
                notes.append(f"growlat {' '.join(command)}: exit {code}; {printed.getvalue()[-300:]}")
        return PassResult(len(self.commands), failed, notes=notes)

    def outputs(self, out_dir):
        return read_outputs(self.name, Path(out_dir))


class RelaxWorkload:
    """sim2's uniform-random growth field relaxed under sim2's dilational and
    shear families, one ``homogenize.measured_energies`` call per datum."""

    def __init__(self, name, n, count, warmup_solves):
        self.name = name
        self.n = n
        self.count = count
        self.solves_per_pass = 2 * count
        self.warmup_solves = warmup_solves
        self.warmup_label = f"{warmup_solves} of {2 * count} solves"

    def setup(self, seed):
        import numpy as np
        import scipy.sparse.linalg  # noqa: F401  (relax_branch imports spsolve at call time)
        from growlat import homogenize, lattice, solver

        self.seed = seed % INPUT_SEEDS
        law = lattice.SpringLaw(q=2, p=0.0)
        co = lattice.square_connectivity()
        scenario = lattice.uniform_growth((SIM2_GROWTH_INTERVAL,) * 4, seed=self.seed)
        self.sample = lattice.build_sample(co, self.n, SIM2_REST, scenario, law)
        families = (
            homogenize.DeformationFamily("dilational", lam_max=1.5, count=self.count),
            homogenize.DeformationFamily("shear", lam_shear=0.5, count=self.count),
        )
        self.fs = np.concatenate([homogenize.sample_family(fam)[1] for fam in families])
        self.opts = solver.SolverOptions()

    def warmup(self, out_dir):
        # set-up has imported everything a solve needs, so a short warm-up
        # suffices; the last data converge in a few steps, the first fails slowly
        return self._solve(range(len(self.fs) - self.warmup_solves, len(self.fs)))

    def run_pass(self, out_dir, tracer=None):
        return self._solve(range(len(self.fs)))

    def _solve(self, indices):
        from growlat import homogenize
        from growlat.solver import ConvergenceError

        result = PassResult(attempted=0, failed=0)
        for i in indices:
            result.attempted += 1
            result.indices.append(i)
            try:
                energy = float(homogenize.measured_energies(self.sample, self.fs[i : i + 1], self.opts)[0])
            except ConvergenceError:
                energy = float("nan")
            if math.isfinite(energy):
                result.energies.append(energy)
            else:
                result.energies.append(None)
                result.unconverged.append(i)
        return result

    def outputs(self, out_dir):
        return {}


WORKLOADS = {
    "sim1-fit": CliWorkload("sim1-fit", [["simulate", "sim1", "--no-convergence"]], solves_per_pass=120),
    # 3 data per family, where sim2 uses 5: three timed N = 64 passes must
    # fit a run, and the family ends, with the failing lambda = 1/1.5, stay in
    "relax-n64": RelaxWorkload("relax-n64", n=64, count=3, warmup_solves=1),
    "relax-n16": RelaxWorkload("relax-n16", n=16, count=60, warmup_solves=1),
    "continuum-cli": CliWorkload("continuum-cli", [["check"], ["error-map", "ex7"], ["oned"]], solves_per_pass=6),
}


def read_outputs(name, out):
    """What the CLI wrote, in the shape the fingerprints use."""

    def column(path, key):
        with open(path, newline="", encoding="utf-8") as fh:
            return [float(row[key]) for row in csv.DictReader(fh)]

    def load(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    if name == "sim1-fit":
        summary = load(out / "sim1_summary.json")
        return {
            "targets": {fam: column(out / f"sim1_{fam}_curves.csv", "true_energy") for fam in ("dilational", "shear")},
            "fit_sse": sum(fit["relative_mse_sum"] for fit in summary["fits"].values()),
        }
    ex7 = load(out / "ex7_summary.json")
    checks = load(out / "checks_summary.json")
    return {
        "ex7_growth_tensor": ex7["growth_tensor"],
        "ex7_exceed_fraction": ex7["exceed_fraction"],
        "oned_chain_energies": column(out / "oned_convergence.csv", "chain_energy"),
        "oned_ns": [int(n) for n in column(out / "oned_convergence.csv", "n")],
        "check_verdicts": {name: check["ok"] for name, check in checks["checks"].items()},
    }
