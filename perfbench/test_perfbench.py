"""Self-tests of the benchmark.  Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def smoke_text(workload, seed, out_dir):
    """The workload's config cut to one path of four steps."""
    text = workload.config_text(seed, str(out_dir))
    dt = next(line.split("=")[1] for line in text.splitlines()
              if line.startswith("dt ="))
    lines = []
    for line in text.splitlines():
        if line.startswith("horizon ="):
            line = f"horizon = {4 * float(dt)!r}"
        elif line.startswith("paths ="):
            line = "paths = 1"
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_config_text(name):
    from mks.config import parse_config

    w = WORKLOADS[name]
    assert w.config_text(5, "out") == w.config_text(5, "out")
    assert w.config_text(5, "out") != w.config_text(6, "out")
    cfg = parse_config(w.config_text(5, "out"))
    assert (cfg.paths, round(cfg.horizon / cfg.dt)) == (w.paths, w.steps)
    assert cfg.save_fields == w.save_fields


def test_every_wrapped_binding_is_restored():
    import mks.diagnostics
    import mks.harness
    import mks.stepping

    originals = {
        "stepping.to_spectral": mks.stepping.to_spectral,
        "operators.to_physical": mks.operators.to_physical,
        "stepper": mks.stepping._STEPPERS["euler_maruyama"],
        "drift": mks.stepping.StepContext.__dict__["drift"],
        "from_paths": mks.diagnostics.RunReport.__dict__["from_paths"],
        "run_experiment": mks.harness.run_experiment,
        "harness.build_runtime": mks.harness.build_runtime,
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        assert mks.stepping.to_spectral is not originals["stepping.to_spectral"]
        assert mks.operators.to_physical is not originals["operators.to_physical"]
        assert mks.stepping._STEPPERS["euler_maruyama"] is not originals["stepper"]
        assert mks.stepping.StepContext.__dict__["drift"] is not originals["drift"]
        assert mks.harness.build_runtime is not originals["harness.build_runtime"]
        assert tracer.leftover_wrappers()
    finally:
        tracer.restore()
    assert tracer.leftover_wrappers() == []
    assert mks.stepping.to_spectral is originals["stepping.to_spectral"]
    assert mks.operators.to_physical is originals["operators.to_physical"]
    assert mks.stepping._STEPPERS["euler_maruyama"] is originals["stepper"]
    assert mks.stepping.StepContext.__dict__["drift"] is originals["drift"]
    assert mks.diagnostics.RunReport.__dict__["from_paths"] is originals["from_paths"]
    assert mks.harness.run_experiment is originals["run_experiment"]
    assert mks.harness.build_runtime is originals["harness.build_runtime"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_does_not_change_outputs(name, tmp_path):
    from mks.config import parse_config
    from mks.harness import run_experiment

    w = WORKLOADS[name]
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    run_experiment(parse_config(smoke_text(w, 3, plain)), workers=1)
    tracer = Tracer()
    tracer.install()
    try:
        run_experiment(parse_config(smoke_text(w, 3, traced)), workers=1)
    finally:
        tracer.restore()
    names = {s[0] for s in tracer.spans}
    assert {"grid.to_spectral", "stepping.drift", "config.build_runtime"} <= names
    for f in ("series.csv", "summary.csv"):
        assert (plain / f).read_bytes() == (traced / f).read_bytes()


def _bench(cwd, *args, timeout=170):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_finishes_in_seconds(trace):
    done = _bench(ROOT, "--workload", "mc_gauge_8", "--seed", "0",
                  "--seconds", "1", "--trace", trace, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)


def test_output_check_catches_a_wrong_summary_and_a_bad_row(tmp_path):
    w = WORKLOADS["mc_gauge_8"]
    reference = json.loads(run.REFERENCE_FILE.read_text())
    seed = int(next(iter(reference["workloads"][w.name]["summary"])))
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(w.config_text(seed, str(tmp_path / "out")))
    result = run.run_child(ROOT, cfg, False, tmp_path / "spans.json", 120)
    out = tmp_path / "out"
    assert run.check_outputs(w, seed, out, result, reference) == (set(), [])

    summary = (out / "summary.csv").read_text().splitlines()
    key, value = summary[2].split(",")
    summary[2] = f"{key},{float(value) * (1 + 1e-6)!r}"
    (out / "summary.csv").write_text("\n".join(summary) + "\n")
    bad, problems = run.check_outputs(w, seed, out, result, reference)
    assert bad == set(range(w.paths)) and key in problems[0]

    series = (out / "series.csv").read_text().splitlines()
    series[5] = ",".join(series[5].split(",")[:-1] + ["nan"])
    (out / "series.csv").write_text("\n".join(series) + "\n")
    bad, _ = run.check_outputs(w, seed + 1000, out, result, reference)
    assert bad == {0}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench(tmp_path, "--workload", "mc_gauge_8", "--seed", "0",
                  "--seconds", "1", "--trace", "0", timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
