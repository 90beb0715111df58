"""Experiment orchestration: Monte-Carlo runs, persistence, verify suite.

Outputs per experiment directory:

* ``series.csv``     one row per (path, step): norms, Lambda, residual
* ``summary.csv``    Monte-Carlo aggregates and event counts
* ``assumptions.csv``  config echo: one row per assumption tag
* ``checkpoints/``   Field6 binary snapshots + ``index.csv`` sidecar
                     (only when save_fields is on)

Paths are integrated in batches of contiguous path indices, stepped
together (``stepping.run_paths``); the batches (``stepping.path_batches``)
depend on the grid size and the path count only.  Workers are independent
processes, each running whole batches; every path is a pure function of
(config, path index) whatever its batch, and reports are folded in path
order, so reruns are bitwise identical for any worker count.

Checkpoints are written by whoever runs the batch, the parent or a worker,
in its loop over the states ``run_paths`` yields (step k at ``[outputs]
stride`` s is level k / s when s divides k), so no run holds its
trajectories and workers return reports only.  A path that blows up
has its files removed; ``index.csv`` is written last, from the reports in
path order, and lists the completed paths only.  File writes go through a
temp-file rename.
"""

from __future__ import annotations

import csv
import io
import os
import signal
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, RuntimeModel, assumption_echo, build_runtime
from .diagnostics import RunReport, fit_loglog_slope
from .errors import BlowUpError, ConfigurationError, UsageError, WorkerLostError
from .galerkin import galerkin_space
from .grid import (PHYSICAL, Field6, inner_product, l2_norm, lp_norm,
                   make_grid, pointwise_norm, random_field, to_physical,
                   to_spectral, write_atomic, write_checkpoint)
from .kerr import (KerrExponent, implicit_kerr_solve, kerr_force,
                   kerr_hessian_apply, kerr_jacobian_apply, monotonicity_gap,
                   monotonicity_gap_scalars)
from .memory import (History, KernelSpec, contraction_step_length,
                     convolve_history)
from .multipliers import (CutoffLevel, cutoff_sandwich_check,
                          radial_sharp_cutoff, sharp_cutoff, smooth_cutoff,
                          standard_window)
from .noise import (SeparableSource, make_noise_spec, refine_bundle,
                    restrict_bundle, sample_brownian, zero_source)
from .operators import (HELMHOLTZ, HODGE_LAPLACIAN, MAXWELL, SHARP_CUTOFF,
                        SMOOTH_CUTOFF, curl, dense_group_matrix,
                        dense_operator, div, grad, helmholtz_project,
                        hodge_laplacian_apply, maxwell_apply, maxwell_group)
from .stepping import (EULER_MARUYAMA, MSEE, PathReport, SchemeConfig,
                       observed, path_batches, run_paths, solve_with_memory)

WORKERS_ENV = "MKS_WORKERS"


def default_workers() -> int:
    """Worker count from MKS_WORKERS; 1 when it is unset or empty."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = None
    if workers is None or workers < 1:
        raise ConfigurationError(f"[workers] {WORKERS_ENV} must be an integer "
                                 f">= 1, got {WORKERS_ENV}={raw!r}")
    return workers


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _checkpoint_name(path_index: int, level: int) -> str:
    return f"path{path_index:04d}_step{level:06d}.mks"


def _run_batch(model: RuntimeModel, batch: range, root: Path | None):
    """Integrate one batch of paths of ``model``; one outcome per path.
    With a checkpoint ``root``, every ``model.stride``-th state of every
    path is written there as it is produced, and a path that blows up has
    its files removed."""
    bundles = [sample_brownian(model.spec.count, model.horizon, model.steps,
                               seed=model.base_seed + p) for p in batch]
    results = []
    for k, paths, view, _ in observed(
            run_paths(model.spec, model.scheme, model.kernel, bundles,
                      path_indices=list(batch)), results):
        level, off_level = divmod(k, model.stride)
        if root is not None and not off_level:
            for row, p in enumerate(paths):
                write_checkpoint(Field6(model.grid, PHYSICAL, view.data[row]),
                                 root / _checkpoint_name(p, level))
        del view  # held while the run forms the next one, it raises the peak
    outcomes = []
    for p, res in zip(batch, results):
        if isinstance(res, BlowUpError):
            if root is not None:
                for written in root.glob(f"path{p:04d}_step*.mks"):
                    written.unlink()
            outcomes.append(("blowup", p, {"time": res.time, "norm": res.norm}))
        else:
            outcomes.append(("ok", p, res))
    return outcomes


_WORKER = {}


def _init_worker(cfg: ExperimentConfig, running, root: Path | None):
    """Pool initializer: each worker process builds the model once, locally,
    so results do not depend on pickling round-trips of its arrays.  A
    forked worker inherits the NoiseSpec its parent's ``run_experiment``
    just built, and ``build_runtime`` reuses it."""
    _WORKER["model"] = build_runtime(cfg)
    _WORKER["running"] = running
    _WORKER["root"] = root
    signal.signal(signal.SIGTERM, _stopped_by_pool)


def _stopped_by_pool(signum, frame):
    """A broken pool terminates its other workers: their paths were not the
    lost ones, so their flags are cleared on the way out."""
    for path_index in _WORKER.get("batch") or ():
        _WORKER["running"][path_index] = 0
    os._exit(128 + signum)


def _run_in_worker(batch: range):
    running = _WORKER["running"]
    _WORKER["batch"] = batch
    for p in batch:
        running[p] = 1
    outcomes = _run_batch(_WORKER["model"], batch, _WORKER["root"])
    for p in batch:
        running[p] = 0
    _WORKER["batch"] = None
    return outcomes


def _run_pool(cfg: ExperimentConfig, batches, workers: int,
              root: Path | None) -> list:
    """Every path's outcome from a worker pool, one task per batch.  Workers
    flag the paths they are running in shared memory, so a worker that dies
    raises WorkerLostError naming the paths in flight."""
    # only pool runs use these; a serial run does not import them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    running = multiprocessing.RawArray("b", cfg.paths)
    outcomes = []
    lost = []
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(cfg, running, root)) as pool:
        futures = [pool.submit(_run_in_worker, batch) for batch in batches]
        for batch, future in zip(batches, futures):
            try:
                outcomes += future.result()
            except BrokenProcessPool:
                lost += batch
    if lost:
        raise WorkerLostError([p for p in lost if running[p]], lost)
    return outcomes


def run_experiment(cfg: ExperimentConfig, workers: int | None = None,
                   out_dir: str | None = None):
    """Execute the Monte-Carlo experiment; returns (RunReport, exit_status).

    The model comes from ``build_runtime``, which reuses the NoiseSpec of
    the last config built when its grid and B_j/b_j/J/u0 profiles are the
    same: the spec a caller built just before (a set-up ``build_runtime``,
    say) is not built again, and pool workers forked from this process take
    the spec built here.  The output bytes are those of a fresh build."""
    if workers is None:
        workers = default_workers()
    elif workers < 1:
        raise ConfigurationError(f"[workers] worker count must be >= 1, got "
                                 f"{workers}")
    model = build_runtime(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)

    root = out / "checkpoints" if cfg.save_fields else None
    # every file of the run goes into these, made once before any batch or
    # worker starts, so an output path that cannot be written fails at once
    try:
        (out if root is None else root).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"[outputs] cannot write {out}: "
                         f"{exc.strerror}") from exc
    batches = path_batches(cfg.grid_points, cfg.paths)
    if workers == 1 or len(batches) == 1:
        outcomes = [o for batch in batches
                    for o in _run_batch(model, batch, root)]
    else:
        outcomes = _run_pool(cfg, batches, workers, root)
    outcomes.sort(key=lambda item: item[1])

    reports = []
    blowups = []
    for kind, p, payload in outcomes:
        if kind == "ok":
            reports.append(payload)
        else:
            blowups.append({"path": p, "kind": "blowup", **payload})

    report = RunReport.from_paths(reports)
    report.events.extend(blowups)

    _write_csv(out / "series.csv",
               ["path", "step", "time", "l2", "power_norm", "lambda_l2",
                "energy_residual"],
               ([r.path_index, k, _fmt(t), _fmt(r.l2[k]),
                 _fmt(r.power_norm[k]), _fmt(r.lambda_l2[k]),
                 _fmt(r.energy_residual[k])]
                for r in reports for k, t in enumerate(r.times)))
    _write_csv(out / "summary.csv", ["metric", "value"],
               _summary_rows(report, cfg))
    _write_csv(out / "assumptions.csv", ["tag", "status", "detail"],
               ([row["tag"], row["status"], row["detail"]]
                for row in assumption_echo(cfg, model)))
    if root is not None:
        _write_csv(root / "index.csv", ["path", "step", "time", "file"],
                   ([r.path_index, level, _fmt(t),
                     _checkpoint_name(r.path_index, level)]
                    for r in reports
                    for level, t in enumerate(r.times[::model.stride])))

    status = 0 if not blowups else 1
    return report, status


def _write_csv(path: Path, header: list, rows):
    """A CSV file of ``header`` and ``rows``, written through a temp-file
    rename."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
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
    """The Monte-Carlo rows (over the surviving paths), the event count and
    the model, then what the averages leave out: the paths that blew up, the
    surviving paths whose Brownian bundle was frozen at the truncation level
    (``paths`` of these), and the earliest freeze time."""
    rows = _monte_carlo_rows(report)
    rows.append(("events", str(len(report.events))))
    rows.append(("equation", cfg.equation))
    rows.append(("q", _fmt(cfg.q)))
    truncations = {e["path"]: e["time"] for e in report.events
                   if e["kind"] == "beta_truncation"}
    blowups = sum(e["kind"] == "blowup" for e in report.events)
    rows.append(("blowup_paths", str(blowups)))
    rows.append(("truncated_paths", str(len(truncations))))
    rows.append(("first_truncation_time",
                 _fmt(min(truncations.values())) if truncations else "none"))
    return rows


def reaggregate(out_dir) -> list:
    """Rebuild summary rows from series.csv (the ``report`` CLI verb); a
    file that cannot be read, lacks a column, holds no data row or holds a
    value that is not a finite number is a UsageError."""
    series = Path(out_dir) / "series.csv"
    columns = ("l2", "power_norm", "lambda_l2", "energy_residual")
    per_path = {}
    try:
        with open(series, newline="") as fh:
            rd = csv.DictReader(fh)
            for row in rd:
                values = per_path.setdefault(int(row["path"]), {})
                for key in ("time",) + columns:
                    value = float(row[key])
                    if not np.isfinite(value):
                        raise ValueError(f"{key} is {row[key]}, not a finite "
                                         f"number")
                    values.setdefault(key, []).append(value)
    except OSError as exc:
        raise UsageError(f"[report] cannot read {series}: "
                         f"{exc.strerror}") from exc
    except KeyError as exc:
        raise UsageError(f"[report] {series} has no {exc} column") from exc
    except (TypeError, ValueError) as exc:  # a short row reads None
        raise UsageError(f"[report] {series} line {rd.line_num}: "
                         f"{exc}") from exc
    if not per_path:
        raise UsageError(f"[report] {series} holds no data row")
    reports = [PathReport(path_index=p, times=np.asarray(v["time"]),
                          **{key: np.asarray(v[key]) for key in columns})
               for p, v in sorted(per_path.items())]
    return _monte_carlo_rows(RunReport.from_paths(reports))


# --------------------------------------------------------------------------
# verify suite: one battery per area.  The acceptance criteria call the
# batteries with their defaults, and "full" runs them at those sizes.
# --------------------------------------------------------------------------

def _check(name, measured, bound=None, lower=None) -> dict:
    """One record: ``measured`` must lie in [lower, bound] (a None end is
    open)."""
    measured = float(measured)
    record = {"name": name, "measured": measured, "bound": bound}
    if lower is not None:
        record["lower"] = lower
    record["passed"] = bool((bound is None or measured <= bound)
                            and (lower is None or measured >= lower))
    return record


def _sup(a: Field6, b: Field6) -> float:
    return np.max(np.abs(a.data - b.data))


_TIGHT = {"grid/transform_roundtrip", "grid/parseval", "multipliers/sandwich"}
_EXACT = {"galerkin/scatter_gather_is_cutoff", "galerkin/packed_maxwell",
          "galerkin/packed_group"}


def _plane_wave_defect(space, rng) -> float:
    """m on u = (a, b) e^{i k.x} against its closed form (i k x b, -i k x a)
    e^{i k.x}, for a random mode k inside the space's cube and below the
    Nyquist index (which aliases to -k); relative sup."""
    g = space.grid
    top = min(space.retained, g.points_per_axis // 2 - 1)
    k = rng.integers(-top, top + 1, size=3)
    a, b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    x = np.meshgrid(*(g.axes(),) * 3, indexing="ij")
    wave = np.exp(1j * sum(ki * xi for ki, xi in zip(k, x)))
    amp = np.concatenate([a, b])
    u = Field6(g, PHYSICAL, amp[:, None, None, None] * wave)
    closed = np.concatenate([1j * np.cross(k, b), -1j * np.cross(k, a)])
    exact = closed[:, None, None, None] * wave
    fast = to_physical(maxwell_apply(space.pack(to_spectral(u)))).data
    return np.max(np.abs(fast - exact)) / np.max(np.abs(exact))


def operator_battery(points: int, fields: int) -> list:
    """Operator, cutoff and transform identities on a points^3 grid of side
    2 pi, each the worst case over ``fields`` random pairs seeded (1, s) and
    (2, s).  The cutoffs and the Galerkin space act one level below Nyquist
    (a cube that does not cover grids of 8^3 and up), the sandwich
    identities at the Nyquist level, and the mask sandwich at every level
    up to it.  m is checked against its closed form on a plane wave, and
    packed m and exp(tm) against the gathered full-grid results.  Bounds:
    0 for the packed space (bitwise), 1e-12 for the transforms and the
    masks, else 1e-10."""
    g = make_grid(points, 2.0 * np.pi)
    top = int(np.log2(g.nyquist))
    lev = CutoffLevel(max(1, top - 1))
    nyq, below = CutoffLevel(top), CutoffLevel(top - 1)
    space = galerkin_space(g, lev)
    cutoffs = (lambda f: sharp_cutoff(f, lev),
               lambda f: radial_sharp_cutoff(f, lev),
               lambda f: smooth_cutoff(f, lev))
    worst = {}

    def grow(name, value):
        worst[name] = max(worst.get(name, 0.0), value)

    for s in range(fields):
        u = random_field(g, seed=(1, s))
        v = random_field(g, seed=(2, s))
        uh, vh = to_spectral(u), to_spectral(v)
        nu, nv = l2_norm(uh), l2_norm(vh)
        mu = maxwell_apply(uh)
        ph = helmholtz_project(uh)
        grow("operators/skew_adjoint", abs(
            inner_product(mu, vh) + inner_product(uh, maxwell_apply(vh)))
            / (nu * nv))
        grow("operators/maxwell_helmholtz_commute",
             _sup(maxwell_apply(ph), helmholtz_project(mu)) / nu)
        grow("operators/maxwell_kills_gradients",
             l2_norm(maxwell_apply(uh.with_data(uh.data - ph.data))) / nu)
        grow("operators/square_is_laplacian",
             _sup(maxwell_apply(mu), hodge_laplacian_apply(ph)) / nu)
        lap = hodge_laplacian_apply(uh)
        for sl in (slice(0, 3), slice(3, 6)):
            blk = uh.data[sl]
            composed = grad(g, div(g, blk)) - curl(g, curl(g, blk))
            grow("operators/laplacian_decomposition",
                 np.max(np.abs(composed - lap.data[sl])) / nu)
        for cut in cutoffs:
            cu = cut(uh)
            grow("multipliers/cutoff_self_adjoint", abs(
                inner_product(cu, vh) - inner_product(uh, cut(vh))) / (nu * nv))
            grow("multipliers/cutoff_maxwell_commute",
                 _sup(maxwell_apply(cu), cut(mu)) / nu)
        pu = sharp_cutoff(uh, lev)
        grow("multipliers/cutoff_idempotent", _sup(sharp_cutoff(pu, lev), pu) / nu)
        packed = space.pack(uh)
        grow("galerkin/scatter_gather_is_cutoff",
             not np.array_equal(space.scatter(packed.data), pu.data))
        grow("galerkin/packed_maxwell", not np.array_equal(
            maxwell_apply(packed).data, space.gather(mu.data)))
        grow("galerkin/packed_group", not np.array_equal(
            maxwell_group(0.3, packed).data,
            space.gather(maxwell_group(0.3, uh).data)))
        grow("operators/maxwell_plane_wave",
             _plane_wave_defect(space, np.random.default_rng((3, s))))
        pn = radial_sharp_cutoff(uh, nyq)
        grow("multipliers/sandwich_fields", _sup(smooth_cutoff(pn, nyq), pn) / nu)
        sb = smooth_cutoff(uh, below)
        grow("multipliers/sandwich_fields",
             _sup(radial_sharp_cutoff(sb, nyq), sb) / nu)
        grow("grid/transform_roundtrip",
             _sup(to_physical(uh), u) / np.max(np.abs(u.data)))
        grow("grid/parseval",
             abs(inner_product(u, v) - inner_product(uh, vh)) / (nu * nv))
    worst["multipliers/sandwich"] = max(
        cutoff_sandwich_check(CutoffLevel(n), g)["max_violation"]
        for n in range(top + 1))
    return [_check(name.replace("/", f"/{points}^3/", 1), value,
                   0.0 if name in _EXACT else
                   1e-12 if name in _TIGHT else 1e-10)
            for name, value in worst.items()]


def dense_battery(column_step: int = 1) -> list:
    """The fast operators against explicit matrices on 4^3, one basis
    vector at a time (every ``column_step``-th column), and exp(tm)
    against scipy's expm."""
    g = make_grid(4, 2.0 * np.pi)
    ops = {
        MAXWELL: maxwell_apply,
        HODGE_LAPLACIAN: hodge_laplacian_apply,
        HELMHOLTZ: helmholtz_project,
        SHARP_CUTOFF: lambda f: sharp_cutoff(f, CutoffLevel(1)),
        SMOOTH_CUTOFF: lambda f: smooth_cutoff(f, CutoffLevel(1)),
    }
    dim = 6 * 4**3
    records = []
    for kind, op in ops.items():
        dense = dense_operator(kind, g, level=1)
        scale = max(np.max(np.abs(dense.matrix)), 1.0)
        worst = 0.0
        for j in range(0, dim, column_step):
            e = np.zeros(dim, dtype=np.complex128)
            e[j] = 1.0
            basis = Field6(g, PHYSICAL, e.reshape(6, 4, 4, 4))
            fast = to_physical(op(to_spectral(basis))).data.ravel()
            worst = max(worst, np.max(np.abs(dense.matrix[:, j] - fast)) / scale)
        records.append(_check(f"dense/{kind}", worst, 1e-10))
    u = random_field(g, seed=3)
    for t in (0.1, 0.3, 1.0):
        fast = to_physical(maxwell_group(t, to_spectral(u))).data.ravel()
        records.append(_check(
            f"dense/group_exp_t{t}",
            np.max(np.abs(dense_group_matrix(t, g) @ u.data.ravel() - fast))
            / np.max(np.abs(u.data)), 1e-8))
    return records


def kerr_battery(pairs: int = 100, scalars: int = 10**6) -> list:
    """Kerr force on 4^3: finite-difference order of the Jacobian, symmetry
    of the Hessian, monotonicity over ``pairs`` field pairs (normalized by
    ||a - b||_4^4) and ``scalars`` C^6 pairs, and the implicit resolvent's
    residual."""
    g = make_grid(4, 2.0 * np.pi)
    u, v, w = (random_field(g, seed=s) for s in (4, 5, 6))
    records = []
    eps_list = (1e-3, 1e-4, 1e-5)
    for q in (1.5, 2.0, 3.0):
        jac = kerr_jacobian_apply(u, v, q)
        errs = []
        for eps in eps_list:
            fd = (kerr_force(u.with_data(u.data + eps * v.data), q).data
                  - kerr_force(u, q).data) / eps
            errs.append(l2_norm(u.with_data(fd - jac.data)))
        order = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        records.append(_check(f"kerr/gradient_order_q{q}", order, lower=0.9))

    h1 = kerr_hessian_apply(u, v, w, 2.0)
    records.append(_check("kerr/hessian_symmetry", _sup(
        h1, kerr_hessian_apply(u, w, v, 2.0)) / max(np.max(np.abs(h1.data)),
                                                    1.0), 1e-12))
    gap = -np.inf
    for s in range(pairs):
        a = random_field(g, seed=(7, s))
        b = random_field(g, seed=(8, s))
        scale = lp_norm(a.with_data(a.data - b.data), 4.0) ** 4.0
        gap = max(gap, monotonicity_gap(a, b, 2.0) / max(scale, 1.0))
    records.append(_check("kerr/monotonicity_fields", gap, 1e-12))
    rng = np.random.default_rng(9)
    sa = rng.standard_normal((6, scalars)) + 1j * rng.standard_normal((6, scalars))
    sb = rng.standard_normal((6, scalars)) + 1j * rng.standard_normal((6, scalars))
    for q in (1.5, 2.0):
        records.append(_check(f"kerr/monotonicity_scalars_q{q}",
                              np.max(monotonicity_gap_scalars(sa, sb, q)),
                              1e-12))

    wf = random_field(g, seed=10, scale=3.0)
    for q, dt in ((1.5, 0.2), (2.0, 1.0)):
        sol = implicit_kerr_solve(wf, dt, q)
        resid = np.abs(sol.data + dt * pointwise_norm(sol) ** q * sol.data
                       - wf.data)
        records.append(_check(f"kerr/implicit_residual_q{q}_dt{dt}",
                              np.max(resid / (1.0 + pointwise_norm(wf))),
                              1e-12))
    return records


def memory_battery() -> list:
    """Trapezoid order of the exponential memory law against its closed
    form, the contraction ratio of windowed Picard on an msee run with
    multiplicative noise, and the contraction length T0(1, 0, 1)."""
    g = make_grid(4, 2.0 * np.pi)
    c = random_field(g, seed=11)
    lam, amp, horizon = 1.3, 0.8, 0.5
    ker = KernelSpec(amp, lam)
    exact = amp * (1 - np.exp(-lam * horizon)) / lam * c.data
    errs = []
    dts = [1e-2, 5e-3, 2.5e-3]
    for dt in dts:
        h = History(ker, dt)
        for _ in range(int(round(horizon / dt)) + 1):
            h.append(c)
        errs.append(np.max(np.abs(convolve_history(h).data - exact)))
    records = [_check("memory/quadrature_order", fit_loglog_slope(dts, errs),
                      2.3, lower=1.7)]

    n = 4
    b = SeparableSource(shape=Field6(
        g, PHYSICAL, np.full((6, n, n, n), 0.1, dtype=np.complex128)))
    spec = make_noise_spec(g, [0.2 * np.ones((n, n, n))], [b],
                           zero_source(g), random_field(g, seed=12, scale=0.5))
    cfg = SchemeConfig(scheme=EULER_MARUYAMA, dt=0.5 / 32,
                       cutoff_level=CutoffLevel(1), equation=MSEE,
                       kerr=KerrExponent(2.0, strong_mode=True))
    _, diag = solve_with_memory(spec, cfg, KernelSpec(2.0, 1.0),
                                sample_brownian(1, 0.5, 32, seed=13))
    worst_ratio = 0.0
    for wnd in diag["windows"]:
        gs = [x for x in wnd["gaps"] if x > 1e-13]
        ratios = [y / x for x, y in zip(gs, gs[1:])][1:]
        if ratios:
            worst_ratio = max(worst_ratio, max(ratios))
    records.append(_check("memory/picard_ratio", worst_ratio, 0.9))
    records.append(_check("memory/contraction_window",
                          contraction_step_length(1.0, 0.0, 1.0), 0.25,
                          lower=0.25))
    return records


def brownian_battery() -> list:
    """Bridge refinement followed by restriction returns the coarse path
    bitwise."""
    base = sample_brownian(2, 1.0, 8, seed=5)
    again = restrict_bundle(refine_bundle(refine_bundle(base)), 4)
    return [_check("noise/refinement_bitwise",
                   0.0 if np.array_equal(base.values, again.values) else 1.0,
                   0.0)]


def statistical_battery() -> list:
    """Seeded statistical witnesses (99%-confidence bands)."""
    vals = np.array([sample_brownian(1, 1.0, 4, seed=s).values[0, -1]
                     for s in range(10**4)])
    # Ito isometry with constant Z: mean of (sum Z dbeta)^2 ~ Z^2 T
    acc = []
    for s in range(10**4):
        b = sample_brownian(1, 1.0, 16, seed=77000 + s)
        acc.append(np.sum(np.diff(b.values[0])) ** 2)
    return [_check("noise/terminal_variance", vals.var(), 1.06, lower=0.94),
            _check("noise/ito_isometry", np.mean(acc), 1.06, lower=0.94)]


_OPERATOR_SIZES = {"fast": ((4, 10), (8, 10)),
                   "full": ((4, 10), (8, 20), (16, 100))}


def verify_suite(level: str) -> list:
    """Run every battery; returns records {"name", "measured", "bound",
    "passed"} plus "lower" where the check has a lower limit.

    "full" runs the acceptance criteria's sizes and counts and adds the
    statistical checks; "fast" runs smaller grids and counts."""
    if level not in _OPERATOR_SIZES:
        raise UsageError(f"unknown verify level {level!r}")
    full = level == "full"
    records = []
    for points, fields in _OPERATOR_SIZES[level]:
        records += operator_battery(points, fields)
    records.append(_check("multipliers/window_partition", np.max(np.abs(
        standard_window().partition_sum(np.logspace(-3, 6, 1000)) - 1.0)),
        1e-10))
    records += dense_battery(column_step=1 if full else 16)
    records += kerr_battery() if full else kerr_battery(20, 10**5)
    records += memory_battery()
    records += brownian_battery()
    if full:
        records += statistical_battery()
    return records
