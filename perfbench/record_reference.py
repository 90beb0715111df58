"""Write reference.json: the stored outputs the benchmark checks against.

Usage (from the root of the checkout): python3 perfbench/record_reference.py

For each workload and each recorded seed, one experiment runs exactly as in
the benchmark; its ``summary.csv`` aggregates are stored, and the terminal
energy-residual bound is RESIDUAL_FACTOR times the largest terminal
|energy_residual| over the recorded runs.

RTOL was set by measurement on mc_gauge_8 and linear_fft_32, seed 1:
routing both transforms through scipy.fft instead of numpy.fft moved the
aggregates by at most 3.4e-13 relative, while scaling ``maxwell_apply`` by
1.001 moved at least one aggregate by more than 1e-5 and dropping the gauge
cross drift moved them by more than 5e-4.
"""

import csv
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, REFERENCE_FILE, run_child
from workloads import WORKLOADS

RECORDED_SEEDS = range(10)
RTOL = 1e-9
RESIDUAL_FACTOR = 10.0


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    reference = {"rtol": RTOL, "residual_factor": RESIDUAL_FACTOR,
                 "workloads": {}}
    for workload in WORKLOADS.values():
        summaries, worst = {}, 0.0
        for seed in RECORDED_SEEDS:
            run_dir = Path(tempfile.mkdtemp(dir=work))
            try:
                cfg = run_dir / "experiment.cfg"
                cfg.write_text(workload.config_text(seed, str(run_dir / "out")))
                result = run_child(root, cfg, False, run_dir / "spans.json",
                                   timeout=600)
                if result["status"] != 0 or result["events"]:
                    raise SystemExit(f"{workload.name} seed {seed}: {result}")
                with open(run_dir / "out" / "summary.csv", newline="") as fh:
                    summaries[str(seed)] = {
                        r["metric"]: float(r["value"])
                        for r in csv.DictReader(fh)
                        if r["metric"] not in ("paths", "events", "equation")}
                with open(run_dir / "out" / "series.csv", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            last = workload.steps
            worst = max([worst] + [abs(float(r["energy_residual"]))
                                   for r in rows if int(r["step"]) == last])
            print(f"{workload.name} seed {seed}: max terminal residual "
                  f"{worst:.3e}", file=sys.stderr)
        reference["workloads"][workload.name] = {
            "residual_bound": RESIDUAL_FACTOR * worst,
            "summary": summaries,
        }
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
