"""Self-tests of the benchmark harness (run with ``python -m pytest bench``)."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


def _clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer(clock=_clock([0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0]))
    root = tracer.begin("bench.pass")          # 0 .. 10
    child = tracer.begin("solver.relax_branch")  # 1 .. 3
    leaf = tracer.begin("scipy.spsolve")       # 2 .. 2.5, counted in its caller's layer
    tracer.end(leaf)
    tracer.end(child)
    other = tracer.begin("serialize.write_csv")  # 4 .. 6
    tracer.end(other)
    tracer.end(root)

    own = spans.self_times(tracer.spans)
    assert own == [6.0, 1.5, 0.5, 2.0]
    assert sum(own) == tracer.spans[root].duration
    assert spans.subtree(tracer.spans, child) == [child, leaf]

    metrics = spans.pass_metrics(tracer.spans, root, own)
    layer_sum = sum(metrics[f"self_s.{layer}"] for layer in spans.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.wall_s"])
    assert metrics["self_s.solver"] == pytest.approx(2.0)
    assert metrics["solver.spsolve_s"] == pytest.approx(0.5)
    assert metrics["solver.newton_self_s"] == pytest.approx(1.5)
    assert metrics["trace.unattributed_share"] == pytest.approx(0.6)

    per_layer = spans.layer_metrics(tracer, [root], untraced_walls=[9.0], fit_sse=0.0)
    assert list(per_layer) == [name for name, _, _ in spans.PER_LAYER]
    assert per_layer["trace.overhead_s"] == pytest.approx(1.0)


def test_spans_must_close_in_order():
    tracer = spans.Tracer(clock=_clock([0.0, 1.0]))
    outer = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrappers_restore_the_original_callables():
    originals = {}
    for module, attr, _, _ in spans.ENTRY_POINTS:
        owner = importlib.import_module(module)
        originals[(module, attr)] = getattr(owner, attr)

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.wrap("growlat.solver", "no_such_entry_point", "solver.none")
    assert tracer.absent == ["growlat.solver.no_such_entry_point"]
    from growlat import lattice

    assert lattice.build_sample is not originals[("growlat.lattice", "build_sample")]
    sample = lattice.build_sample(lattice.square_connectivity(), 3, 1.0)
    assert [s.name for s in tracer.spans] == ["lattice.build_sample"]
    assert tracer.spans[0].counts["edges"] == sample.n_edges
    tracer.restore()

    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_perturbed_fingerprint_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(run.ROOT / "src", target_is_directory=True)
    fingerprints = tmp_path / HERE.name / "fingerprints.json"
    recorded = json.loads(fingerprints.read_text())
    recorded["continuum-cli"]["ex7_growth_tensor"][0][0] += 1e-3
    fingerprints.write_text(json.dumps(recorded))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "continuum-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 1
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False
    assert "ex7 growth tensor" in done.stdout


def test_a_pass_that_writes_nothing_fails_the_run(monkeypatch, capsys):
    # the warm-up writes every output; the first timed pass exits 0 but
    # writes nothing, which the run must not mistake for a faster pass
    import workloads
    from growlat import cli

    per_pass = len(workloads.WORKLOADS["continuum-cli"].commands)
    real_main = cli.main
    commands = []

    def writes_only_during_warmup(argv):
        commands.append(argv)
        return real_main(argv) if len(commands) <= per_pass else 0

    for var in run.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(cli, "main", writes_only_during_warmup)
    code = run.main(["--workload", "continuum-cli", "--seed", "0", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert len(commands) == 2 * per_pass
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False
    assert "outputs of the pass are missing" in out


def test_without_the_program_sources_the_run_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "relax-n16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 2
    assert '"correct"' not in done.stdout
