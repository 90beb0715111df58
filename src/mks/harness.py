"""Experiment orchestration: Monte-Carlo runs, persistence, verify suite.

Outputs per experiment directory:

* ``series.csv``     one row per (path, step): norms, Lambda, residual
* ``summary.csv``    Monte-Carlo aggregates and event counts
* ``assumptions.csv``  config echo: one row per assumption tag
* ``checkpoints/``   Field6 binary snapshots + ``index.csv`` sidecar
                     (only when save_fields is on)

Workers are independent processes; every path is a pure function of
(config, path index), and reports are folded in path order, so reruns are
bitwise identical for any worker count.  File writes go through a
temp-file rename.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, RuntimeModel, assumption_echo, build_runtime
from .diagnostics import RunReport
from .errors import BlowUpError
from .grid import write_atomic, write_checkpoint
from .noise import sample_brownian
from .stepping import TSEE, run_path

WORKERS_ENV = "MKS_WORKERS"


def default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _run_one_path(cfg: ExperimentConfig, path_index: int):
    """Worker body: rebuild the model locally so results do not depend on
    pickling round-trips, then integrate one path."""
    model = build_runtime(cfg)
    bundle = sample_brownian(model.spec.count, model.horizon, model.steps,
                             seed=model.base_seed + path_index)
    record = cfg.save_fields
    try:
        result = run_path(model.spec, model.scheme, model.kernel, bundle,
                          path_index=path_index, record_fields=record,
                          record_transformed=record and
                          model.scheme.equation == TSEE)
        return ("ok", path_index, result)
    except BlowUpError as exc:
        return ("blowup", path_index, {"time": exc.time, "norm": exc.norm})


def run_experiment(cfg: ExperimentConfig, workers: int | None = None,
                   out_dir: str | None = None):
    """Execute the Monte-Carlo experiment; returns (RunReport, exit_status)."""
    model = build_runtime(cfg)
    if workers is None:
        workers = default_workers()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)

    indices = list(range(cfg.paths))
    outcomes = []
    if workers <= 1 or cfg.paths == 1:
        for p in indices:
            outcomes.append(_run_one_path(cfg, p))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one_path, [cfg] * len(indices),
                                     indices))
    outcomes.sort(key=lambda item: item[1])

    reports = []
    blowups = []
    results = []
    for kind, p, payload in outcomes:
        if kind == "ok":
            reports.append(payload.report)
            results.append(payload)
        else:
            blowups.append({"path": p, "kind": "blowup", **payload})

    report = RunReport.from_paths(reports)
    report.events.extend(blowups)

    _write_series_csv(out / "series.csv", reports)
    _write_summary_csv(out / "summary.csv", report, cfg)
    _write_assumptions_csv(out / "assumptions.csv", cfg, model)
    if cfg.save_fields:
        _write_checkpoints(out / "checkpoints", results)

    status = 0 if not blowups else 1
    return report, status


def _write_series_csv(path: Path, reports):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["path", "step", "time", "l2", "power_norm", "lambda_l2",
                "energy_residual"])
    for r in reports:
        for k, t in enumerate(r.times):
            w.writerow([r.path_index, k, _fmt(t), _fmt(r.l2[k]),
                        _fmt(r.power_norm[k]), _fmt(r.lambda_l2[k]),
                        _fmt(r.energy_residual[k])])
    write_atomic(path, buf.getvalue().encode())


def _monte_carlo_rows(report: RunReport) -> list:
    """Path count, then mean, variance and CI half-width of each statistic."""
    rows = [("paths", str(len(report.paths)))]
    for name, mc in (("sup_l2_squared", report.sup_l2_squared),
                     ("integral_power", report.integral_power),
                     ("sup_lambda_squared", report.sup_lambda_squared),
                     ("terminal_residual", report.terminal_residual)):
        rows.append((f"{name}_mean", _fmt(mc.mean)))
        rows.append((f"{name}_variance", _fmt(mc.variance)))
        rows.append((f"{name}_ci_half_width", _fmt(mc.ci_half_width)))
    return rows


def _summary_rows(report: RunReport, cfg: ExperimentConfig):
    rows = _monte_carlo_rows(report)
    rows.append(("events", str(len(report.events))))
    rows.append(("equation", cfg.equation))
    rows.append(("q", _fmt(cfg.q)))
    return rows


def _write_summary_csv(path: Path, report: RunReport, cfg: ExperimentConfig):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["metric", "value"])
    for key, val in _summary_rows(report, cfg):
        w.writerow([key, val])
    write_atomic(path, buf.getvalue().encode())


def _write_assumptions_csv(path: Path, cfg: ExperimentConfig,
                           model: RuntimeModel):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["tag", "status", "detail"])
    for row in assumption_echo(cfg, model):
        w.writerow([row["tag"], row["status"], row["detail"]])
    write_atomic(path, buf.getvalue().encode())


def _write_checkpoints(root: Path, results):
    root.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["path", "step", "time", "file"])
    for res in results:
        traj = res.trajectory
        if traj is None:
            continue
        for k, t in enumerate(traj.times):
            name = f"path{res.report.path_index:04d}_step{k:06d}.mks"
            write_checkpoint(traj.state(k), root / name)
            w.writerow([res.report.path_index, k, _fmt(t), name])
    write_atomic(root / "index.csv", buf.getvalue().encode())


def reaggregate(out_dir) -> list:
    """Rebuild summary rows from series.csv (the ``report`` CLI verb)."""
    out = Path(out_dir)
    per_path = {}
    with open(out / "series.csv", newline="") as fh:
        rd = csv.DictReader(fh)
        for row in rd:
            p = int(row["path"])
            per_path.setdefault(p, {"times": [], "l2": [], "power_norm": [],
                                    "lambda_l2": [], "energy_residual": []})
            for key in ("l2", "power_norm", "lambda_l2", "energy_residual"):
                per_path[p][key].append(float(row[key]))
            per_path[p]["times"].append(float(row["time"]))
    from .stepping import PathReport

    reports = []
    for p in sorted(per_path):
        d = per_path[p]
        reports.append(PathReport(
            path_index=p, seed=0, times=np.asarray(d["times"]),
            l2=np.asarray(d["l2"]), power_norm=np.asarray(d["power_norm"]),
            lambda_l2=np.asarray(d["lambda_l2"]),
            energy_residual=np.asarray(d["energy_residual"])))
    return _monte_carlo_rows(RunReport.from_paths(reports))


# --------------------------------------------------------------------------
# verify suite
# --------------------------------------------------------------------------

def verify_suite(level: str = "fast") -> list:
    """Run the module invariant batteries; returns machine-readable records.

    Each record: {"name", "measured", "bound", "passed"}.  "fast" works on
    4^3/8^3 grids; "full" adds the 16^3 battery and statistical checks.
    """
    checks = []

    def check(name, measured, bound):
        checks.append({"name": name, "measured": float(measured),
                       "bound": float(bound),
                       "passed": bool(measured <= bound)})

    from .grid import (inner_product, l2_norm, make_grid, random_field,
                       to_physical, to_spectral)
    from .kerr import (implicit_kerr_solve, kerr_force, kerr_jacobian_apply,
                       monotonicity_gap, monotonicity_gap_scalars)
    from .memory import History, contraction_step_length, convolve_history, \
        exponential_kernel
    from .multipliers import (CutoffLevel, cutoff_sandwich_check,
                              sharp_cutoff, smooth_cutoff, standard_window)
    from .noise import refine_bundle, restrict_bundle, sample_brownian
    from .operators import (HELMHOLTZ, HODGE_LAPLACIAN, MAXWELL, SHARP_CUTOFF,
                            SMOOTH_CUTOFF, curl, dense_group_matrix,
                            dense_operator, div, grad, helmholtz_project,
                            hodge_laplacian_apply, maxwell_apply, maxwell_group)

    sizes = [(4, 10), (8, 10)] if level == "fast" else [(4, 10), (8, 20), (16, 100)]

    for n, n_fields in sizes:
        g = make_grid(n, 2.0 * np.pi)
        worst = {"skew": 0.0, "commute": 0.0, "annihilate": 0.0, "square": 0.0,
                 "laplacian": 0.0, "cutoff": 0.0, "roundtrip": 0.0,
                 "parseval": 0.0}
        lev = CutoffLevel(max(1, int(np.log2(g.nyquist)) - 1))
        for s in range(n_fields):
            u = random_field(g, seed=(n, s, 1))
            v = random_field(g, seed=(n, s, 2))
            uh, vh = to_spectral(u), to_spectral(v)
            scale = l2_norm(uh) * l2_norm(vh)
            mu, mv = maxwell_apply(uh), maxwell_apply(vh)
            worst["skew"] = max(worst["skew"], abs(
                inner_product(mu, vh) + inner_product(uh, mv)) / scale)
            ph = helmholtz_project(uh)
            worst["commute"] = max(worst["commute"], np.max(np.abs(
                maxwell_apply(ph).data - helmholtz_project(mu).data))
                / l2_norm(uh))
            grad_part = uh.with_data(uh.data - ph.data)
            worst["annihilate"] = max(worst["annihilate"],
                                      l2_norm(maxwell_apply(grad_part))
                                      / l2_norm(uh))
            worst["square"] = max(worst["square"], np.max(np.abs(
                maxwell_apply(mu).data - hodge_laplacian_apply(ph).data))
                / l2_norm(uh))
            lap = hodge_laplacian_apply(uh)
            for sl in (slice(0, 3), slice(3, 6)):
                blk = uh.data[sl]
                composed = grad(g, div(g, blk)) - curl(g, curl(g, blk))
                worst["laplacian"] = max(worst["laplacian"], np.max(np.abs(
                    composed - lap.data[sl])) / l2_norm(uh))
            pn = sharp_cutoff(uh, lev)
            worst["cutoff"] = max(
                worst["cutoff"],
                np.max(np.abs(sharp_cutoff(pn, lev).data - pn.data)) / l2_norm(uh),
                abs(inner_product(pn, vh) - inner_product(uh, sharp_cutoff(vh, lev)))
                / scale,
                np.max(np.abs(maxwell_apply(pn).data
                              - sharp_cutoff(mu, lev).data)) / l2_norm(uh),
                np.max(np.abs(maxwell_apply(smooth_cutoff(uh, lev)).data
                              - smooth_cutoff(mu, lev).data)) / l2_norm(uh))
            rt = to_physical(uh)
            worst["roundtrip"] = max(worst["roundtrip"], np.max(np.abs(
                rt.data - u.data)) / np.max(np.abs(u.data)))
            worst["parseval"] = max(worst["parseval"], abs(
                inner_product(u, v) - inner_product(uh, vh)) / scale)
        check(f"operators/{n}^3/skew_adjoint", worst["skew"], 1e-10)
        check(f"operators/{n}^3/maxwell_helmholtz_commute", worst["commute"], 1e-10)
        check(f"operators/{n}^3/maxwell_kills_gradients", worst["annihilate"], 1e-10)
        check(f"operators/{n}^3/square_is_laplacian", worst["square"], 1e-10)
        check(f"operators/{n}^3/laplacian_decomposition", worst["laplacian"], 1e-10)
        check(f"operators/{n}^3/cutoff_projection_family", worst["cutoff"], 1e-10)
        check(f"grid/{n}^3/transform_roundtrip", worst["roundtrip"], 1e-12)
        check(f"grid/{n}^3/parseval", worst["parseval"], 1e-12)
        sandwich = cutoff_sandwich_check(lev, g)
        check(f"multipliers/{n}^3/sandwich", sandwich["max_violation"], 1e-12)

    # dense oracles on the 4^3 grid
    g4 = make_grid(4, 2.0 * np.pi)
    u = random_field(g4, seed=11)
    x = u.data.ravel()
    for kind, op in ((MAXWELL, maxwell_apply),
                     (HODGE_LAPLACIAN, hodge_laplacian_apply),
                     (HELMHOLTZ, helmholtz_project)):
        dense = dense_operator(kind, g4)
        fast = to_physical(op(to_spectral(u))).data.ravel()
        rel = np.max(np.abs(dense.matrix @ x - fast)) / np.max(np.abs(fast) + 1e-300)
        check(f"dense/{kind}", rel, 1e-10)
    for kind, op in ((SHARP_CUTOFF, lambda f: sharp_cutoff(f, CutoffLevel(1))),
                     (SMOOTH_CUTOFF, lambda f: smooth_cutoff(f, CutoffLevel(1)))):
        dense = dense_operator(kind, g4, level=1)
        fast = to_physical(op(to_spectral(u))).data.ravel()
        rel = np.max(np.abs(dense.matrix @ x - fast)) / np.max(np.abs(x))
        check(f"dense/{kind}", rel, 1e-10)
    for t in (0.1, 0.3, 1.0):
        em = dense_group_matrix(t, g4)
        fast = to_physical(maxwell_group(t, to_spectral(u))).data.ravel()
        check(f"dense/group_exp_t{t}", np.max(np.abs(em @ x - fast))
              / np.max(np.abs(x)), 1e-8)

    # window partition of unity
    w = standard_window()
    xs = np.logspace(-3, 6, 1000)
    check("multipliers/window_partition",
          np.max(np.abs(w.partition_sum(xs) - 1.0)), 1e-10)

    # kerr battery
    g = make_grid(4, 2.0 * np.pi)
    u = random_field(g, seed=21)
    v = random_field(g, seed=22)
    for q in (1.5, 2.0, 3.0):
        errs = []
        eps_list = (1e-3, 1e-4, 1e-5)
        for eps in eps_list:
            fd = (kerr_force(u.with_data(u.data + eps * v.data), q).data
                  - kerr_force(u, q).data) / eps
            errs.append(l2_norm(u.with_data(fd - kerr_jacobian_apply(u, v, q).data)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        check(f"kerr/gradient_order_q{q}", 0.9 - slope, 0.0)
    gap_worst = max(monotonicity_gap(random_field(g, seed=30 + s),
                                     random_field(g, seed=60 + s), 2.0)
                    for s in range(20))
    check("kerr/monotonicity_fields", gap_worst, 1e-12 * 1e4)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 10**5)) + 1j * rng.standard_normal((6, 10**5))
    b = rng.standard_normal((6, 10**5)) + 1j * rng.standard_normal((6, 10**5))
    check("kerr/monotonicity_scalars",
          float(np.max(monotonicity_gap_scalars(a, b, 1.5))), 1e-12)
    wf = random_field(g, seed=33, scale=2.0)
    sol = implicit_kerr_solve(wf, 0.25, 2.0)
    from .grid import pointwise_norm
    res = np.max(np.abs(sol.data * (1 + 0.25 * pointwise_norm(sol) ** 2)
                        - wf.data) / (1.0 + pointwise_norm(wf)))
    check("kerr/implicit_residual", res, 1e-12)

    # brownian bundle
    base = sample_brownian(2, 1.0, 8, seed=5)
    again = restrict_bundle(refine_bundle(refine_bundle(base)), 4)
    check("noise/refinement_bitwise",
          0.0 if np.array_equal(base.values, again.values) else 1.0, 0.0)

    # memory law
    ker = exponential_kernel(0.8, 1.3)
    c = random_field(g, seed=41)
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        steps = int(round(0.5 / dt))
        h = History(dt=dt)
        for k in range(steps + 1):
            h.append(k * dt, c)
        conv = convolve_history(h, ker, 0.5)
        exact = 0.8 * (1 - np.exp(-1.3 * 0.5)) / 1.3 * c.data
        errs.append(np.max(np.abs(conv.data - exact)))
    slope = np.polyfit(np.log([1e-2, 5e-3, 2.5e-3]), np.log(errs), 1)[0]
    check("memory/quadrature_order_low", 1.7 - slope, 0.0)
    check("memory/quadrature_order_high", slope - 2.3, 0.0)
    check("memory/contraction_window",
          abs(contraction_step_length(1.0, 0.0, 1.0) - 0.25), 0.0)

    if level == "full":
        checks.extend(_statistical_checks())
    return checks


def _statistical_checks() -> list:
    """Seeded statistical witnesses (99%-confidence bands)."""
    from .noise import sample_brownian

    out = []
    vals = np.array([sample_brownian(1, 1.0, 4, seed=s).values[0, -1]
                     for s in range(10**4)])
    var = float(vals.var())
    out.append({"name": "noise/terminal_variance", "measured": var,
                "bound": 1.06, "passed": bool(0.94 <= var <= 1.06)})
    # Ito isometry with constant Z: mean of (sum Z dbeta)^2 ~ Z^2 T
    acc = []
    for s in range(10**4):
        b = sample_brownian(1, 1.0, 16, seed=77000 + s)
        acc.append(np.sum(np.diff(b.values[0])) ** 2)
    ratio = float(np.mean(acc))
    out.append({"name": "noise/ito_isometry", "measured": ratio,
                "bound": 1.06, "passed": bool(0.94 <= ratio <= 1.06)})
    return out
