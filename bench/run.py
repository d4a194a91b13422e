"""growlat benchmark: one workload per run, one JSON result on the last line.

    python3 bench/run.py --workload relax-n64 --seed 0 --seconds 16 --trace 0

A run times passes back to back, at least MIN_PASSES of them, until
--seconds have been measured; each pass writes into its own empty
directory.  With --trace 0 the result holds the end-to-end metrics,
measured with no tracing.  With --trace 1 it holds the per-layer metrics:
untraced passes alternate with passes that record spans around growlat's
entry points, and the difference of the two median pass times is the
tracing overhead.  The run exits 1 when an output differs from its
recorded fingerprint or fails an independent check, and 2 when growlat's
sources are missing.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
MIN_PASSES = 3  # timed passes per run, however long a pass takes

# (name, unit, better); mirrors "end_to_end" in BENCHMARK.json
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("solves_per_s", "1/s", "higher"),
    ("ok_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread (at most nproc), set before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in BLAS_THREAD_VARS}


def import_program():
    """Import growlat from src/ of this checkout, or exit 2."""
    init = ROOT / "src" / "growlat" / "__init__.py"
    if not init.is_file():
        print(f"error: growlat sources not found at {init.parent}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import growlat

    if Path(growlat.__file__).resolve() != init.resolve():
        print(f"error: imported growlat from {growlat.__file__}, expected {init}", file=sys.stderr)
        raise SystemExit(2)


def setup_in_subprocess(args):
    """Set-up time of a fresh process (imports plus the workload's inputs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def environment(args, workload, threads, passes, traced_passes):
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": workload.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "warmup_discarded": workload.warmup_label,
        "untraced_passes": passes,
        "traced_passes": traced_passes,
    }


def main(argv=None):
    args = parse_args(argv)
    threads = pin_blas_threads()
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import checks
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        with tracer.span("bench.setup"):
            spans.install(tracer)
            workload.setup(args.seed)
            tracer.restore()
    else:
        workload.setup(args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        return 0
    setups = [time.perf_counter() - STARTED]

    fingerprints = checks.load_fingerprints()
    from growlat import solver
    from growlat.lattice import SpringLaw

    tap = workloads.ReportTap()
    notes = [] if tap.install() else ["growlat.homogenize.relax_branch is absent: solve checks skipped"]
    fit_sse = []

    def verify(result, out_dir):
        """Problems with one pass, checked outside the timed region."""
        if result.failed:
            return list(result.notes)
        try:
            outputs = workload.outputs(out_dir)
        except (OSError, KeyError, ValueError) as exc:
            return [f"outputs of the pass are missing or unreadable: {exc!r}"]
        fit_sse.append(outputs.get("fit_sse", 0.0))
        found = checks.compare(args.workload, workload.seed, result, outputs, fingerprints)
        found += checks.check_solves(tap.solves, solver.total_energy)
        if args.workload == "continuum-cli":
            found += checks.check_oned(outputs, solver.one_d_continuum_energy, solver.linear_growth, SpringLaw)
        tap.solves.clear()
        return found

    def checked(run_pass):
        """Run one pass into a fresh, empty output directory and check it, so
        that no pass is judged on files an earlier pass left behind."""
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=tmp)
        try:
            result = run_pass(out_dir)
            problems.extend(verify(result, out_dir))
        finally:
            shutil.rmtree(out_dir)
        return result

    def timed_pass(out_dir, traced=False):
        if traced:
            spans.install(tracer)
            try:
                root = tracer.begin("bench.pass")
                result = workload.run_pass(out_dir, tracer)
                tracer.end(root)
            finally:
                tracer.restore()
            roots.append(root)
            traced_walls.append(tracer.spans[root].duration)
        else:
            start = time.perf_counter()
            result = workload.run_pass(out_dir)
            walls.append(time.perf_counter() - start)
        results.append(result)
        return result

    results, problems, walls, traced_walls, roots = [], [], [], [], []
    try:
        with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
            warm = checked(workload.warmup)
            if problems:
                results.append(warm)
            while not problems and (len(walls) + len(traced_walls) < MIN_PASSES
                                    or sum(walls) + sum(traced_walls) < args.seconds):
                checked(timed_pass)
                if tracer and not problems:
                    # traced and untraced passes alternate, so drift in machine
                    # speed falls on both sides of the overhead estimate
                    checked(lambda out_dir: timed_pass(out_dir, traced=True))
    finally:
        tap.remove()

    attempted = sum(r.attempted for r in results) or 1
    failed = sum(r.failed for r in results)
    correct = not problems and failed == 0
    print(json.dumps({"environment": environment(args, workload, threads, len(walls), len(traced_walls))}))
    for msg in problems + notes:
        print(f"check: {msg}")
    metrics, units = {}, {}
    if correct and tracer:
        metrics = spans.layer_metrics(tracer, roots, walls, statistics.median(fit_sse))
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        if tracer.absent:
            print(f"absent callables: {', '.join(tracer.absent)}")
    elif correct:
        setups += [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
        unconverged = sum(len(r.unconverged) for r in results)
        wall = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "solves_per_s": workload.solves_per_pass / wall,
            "ok_share": (attempted - failed - unconverged) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        print(f"failed_share {unconverged}/{attempted} = {unconverged / attempted:.4f} (ops that did not succeed)")
        print(f"fit_sse {statistics.median(fit_sse):.6g}")
        print("wall_s per pass: " + ", ".join(f"{w:.4f}" for w in walls))
        print("setup_s per set-up: " + ", ".join(f"{s:.4f}" for s in setups))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
