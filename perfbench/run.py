"""Benchmark of the mks simulator: Monte-Carlo path-step throughput.

Usage (from the root of a checkout that holds ``src/mks``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in one process runs one workload at a time with
``workers=1``.  Each experiment is one fresh process (``child.py``) that
imports ``mks``, parses the generated config, builds the runtime and calls
``harness.run_experiment``; experiments repeat until S seconds have passed
and the medians are reported.  Every experiment's outputs are checked.  With
``--trace 1`` traced and untraced experiments alternate and the per-layer
figures come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An attempted
operation is one Monte-Carlo path.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import layer_metrics, step_durations_ms, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# No experiment starts after this many seconds of a run, whatever --seconds
# asks for, and every experiment ends within BUDGET_S + 10.
BUDGET_S = 160.0
REFERENCE_FILE = HERE / "reference.json"
# Single-threaded BLAS keeps a run to one core and fixes reduction order.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# Metric names and units come from the benchmark's own definition.
_SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

BLIND_SPOTS = (
    "Kerr Newton iterations and bisection fallbacks happen inside "
    "implicit_kerr_solve and are not visible from outside",
    "Picard iterations: solve_with_memory is not on the run_experiment path",
    "worker-pool scaling: runs use workers=1 on a 2-core shared machine",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mks").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def cpu_ticks():
    """(steal, total) CPU ticks summed over all CPUs, or None off Linux.

    On a virtual machine, steal is time the host gave to someone else; the
    load average inside the machine does not show it."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def manifest(root: Path, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "child_env": CHILD_ENV,
        "loadavg_before": os.getloadavg(),
    }


def run_child(root: Path, config_file: Path, trace: bool, spans_file: Path,
              timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), str(config_file),
           "1" if trace else "0", str(spans_file)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env={**os.environ, **CHILD_ENV}, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"experiment exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_outputs(workload, seed: int, out: Path, result: dict,
                  reference: dict) -> tuple:
    """Failed path indices and messages for one experiment's outputs."""
    paths = range(workload.paths)
    everything = set(paths)
    problems = []
    if result["status"] != 0:
        problems.append(f"run_experiment returned status {result['status']}")
    bad = {e["path"] for e in result["events"] if e.get("kind") == "blowup"}
    if bad:
        problems.append(f"blow-up on paths {sorted(bad)}")
    elif result["status"] != 0:
        bad = everything
    ref = reference["workloads"][workload.name]
    try:
        with open(out / "series.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(out / "summary.csv", newline="") as fh:
            summary = {r["metric"]: r["value"] for r in csv.DictReader(fh)}
    except (OSError, KeyError) as exc:
        return everything, problems + [f"unreadable outputs: {exc}"]
    if len(rows) != workload.paths * (workload.steps + 1):
        problems.append(f"series.csv has {len(rows)} rows, expected "
                        f"{workload.paths} x {workload.steps + 1}")
        bad |= everything
    by_path = {}
    for row in rows:
        by_path.setdefault(int(row["path"]), []).append(row)
    for p in paths:
        mine = by_path.get(p, [])
        values = [float(v) for r in mine for k, v in r.items()
                  if k not in ("path", "step")]
        if len(mine) != workload.steps + 1 or not all(map(math.isfinite, values)):
            problems.append(f"path {p}: missing or non-finite series rows")
            bad.add(p)
            continue
        residual = abs(float(mine[-1]["energy_residual"]))
        if residual > ref["residual_bound"]:
            problems.append(f"path {p}: terminal energy residual {residual:.3e}"
                            f" > {ref['residual_bound']:.3e}")
            bad.add(p)
    if summary.get("paths") != str(workload.paths):
        problems.append(f"summary.csv counts {summary.get('paths')} paths")
        bad |= everything
    for key, want in ref["summary"].get(str(seed), {}).items():
        got = float(summary.get(key, "nan"))
        if not _close(got, want, reference["rtol"]):
            problems.append(f"summary {key} = {got!r}, reference {want!r}")
            bad |= everything
    if workload.save_fields:
        try:
            with open(out / "checkpoints" / "index.csv", newline="") as fh:
                files = [r["file"] for r in csv.DictReader(fh)]
        except (OSError, KeyError) as exc:
            files = []
            problems.append(f"checkpoint index unreadable: {exc}")
        if (len(files) != workload.paths * (workload.steps + 1)
                or not all((out / "checkpoints" / f).is_file() for f in files)):
            problems.append("checkpoint files missing")
            bad |= everything
    return bad, problems


def benchmark(root: Path, args, run_dir: Path) -> tuple:
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE_FILE.read_text())
    out = run_dir / "out"
    config_file = run_dir / "experiment.cfg"
    config_file.write_text(workload.config_text(args.seed, str(out)))
    spans_file = run_dir / "spans.json"
    path_steps = workload.paths * workload.steps

    start = time.monotonic()
    plain, traced, layers, steps_ms, durations = [], [], [], [], []
    first_outputs = None
    attempted = failed = 0
    problems = []
    k = 0
    while True:
        # Experiments repeat while the longest one so far still fits in
        # --seconds, so a run lasts at most --seconds plus start-up.
        elapsed = time.monotonic() - start
        longest = max(durations, default=0.0)
        trace = bool(args.trace) and k % 2 == 1
        enough = plain and (traced or not args.trace) and not trace
        if (enough and elapsed + longest > args.seconds
                or elapsed + longest > BUDGET_S):
            break
        k += 1
        shutil.rmtree(out, ignore_errors=True)
        attempted += workload.paths
        began = time.monotonic()
        try:
            result = run_child(root, config_file, trace, spans_file,
                               timeout=BUDGET_S + 10 - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                IndexError) as exc:
            failed += workload.paths
            problems.append(f"experiment {k}: {exc}")
            continue
        finally:
            durations.append(time.monotonic() - began)
        bad, msgs = check_outputs(workload, args.seed, out, result, reference)
        outputs = [(out / name).read_bytes() if (out / name).is_file() else b""
                   for name in ("series.csv", "summary.csv")]
        if first_outputs is None:
            first_outputs = outputs
        elif outputs != first_outputs:
            msgs.append("series.csv/summary.csv differ from the first "
                        "experiment" + (" (traced)" if trace else ""))
            bad = set(range(workload.paths))
        if trace:
            if result["leftover_wrappers"]:
                msgs.append(f"wrappers not restored: {result['leftover_wrappers']}")
                bad = set(range(workload.paths))
            spans = json.loads(spans_file.read_text())
            layers.append(layer_metrics(spans, path_steps, workload.paths,
                                        len(outputs[0])))
            steps_ms += step_durations_ms(spans)
            traced.append(result)
        else:
            plain.append(result)
        failed += len(bad)
        problems += [f"experiment {k}: {m}" for m in msgs]

    if args.trace:
        units = PER_LAYER_UNITS
        metrics, notes = {}, {}
        if layers and plain:
            metrics = {name: statistics.median([m[name] for m in layers])
                       for name in layers[0]}
            p50, tail, pct = tail_percentile(steps_ms)
            metrics["stepping.step_ms_p50"] = p50
            metrics["stepping.step_ms_tail"] = tail
            base = statistics.median([r["wall_s"] for r in plain])
            metrics["trace.overhead_frac"] = (
                statistics.median([r["wall_s"] for r in traced]) / base - 1.0)
            notes = {
                "stepping.step_ms_tail": f"p{pct:.2f} of {len(steps_ms)} "
                                         "stepper calls",
                "grid.fft_bytes_per_step": "computed from array sizes",
                "trace.overhead_frac": f"median traced wall over median "
                f"untraced wall, minus 1 ({len(traced)} traced and "
                f"{len(plain)} untraced experiments, base {base:.4f} s)",
            }
        missing = sorted({m for r in traced for m in r.get("missing", [])})
        if missing:
            notes["unmeasured"] = f"not found in mks, read as 0: {missing}"
    else:
        units = END_TO_END_UNITS
        metrics, notes = {}, {}
        if plain:
            wall = statistics.median([r["wall_s"] for r in plain])
            metrics = {
                "path_steps_per_s": path_steps / wall,
                "wall_s": wall,
                "setup_s": statistics.median([r["setup_s"] for r in plain]),
                "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
            }
            notes = {"path_steps_per_s": f"{workload.paths} paths x "
                     f"{workload.steps} steps over the median of {len(plain)} "
                     "run_experiment wall times"}
    return metrics, units, notes, attempted, failed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mks" / "__init__.py").is_file():
        print(f"error: no src/mks package under {root}", file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=work))
    ticks_before = cpu_ticks()
    try:
        info = manifest(root, args)
        metrics, units, notes, attempted, failed, problems = benchmark(
            root, args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info["loadavg_after"] = os.getloadavg()
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        info["steal_frac"] = ((ticks_after[0] - ticks_before[0])
                              / (ticks_after[1] - ticks_before[1]))
    info["load_exceeded_nproc"] = max(info["loadavg_before"][0],
                                      info["loadavg_after"][0]) > info["nproc"]
    print("manifest " + json.dumps(info))
    if info["load_exceeded_nproc"]:
        print("warning: load average exceeded nproc during this run")
    for msg in problems:
        print("check failed: " + msg)
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} failed of {attempted} paths attempted)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, note in notes.items():
        print(f"note {name}: {note}")
    if args.trace:
        for spot in BLIND_SPOTS:
            print(f"blind spot: {spot}")
    correct = failed == 0 and attempted > 0 and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
