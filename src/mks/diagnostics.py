"""Measurements: energy-identity residuals, bound witnesses, convergence fits.

Every estimate with an existential constant is reported as the empirical
ratio left/right with the constant set to 1; sweeps assert boundedness and
trend, never a specific constant.  Monte-Carlo confidence intervals use
half-width 1.96 * sample std / sqrt(samples); slopes come from least squares
on log-log points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .grid import inner_product, l2_norm, lp_norm, to_spectral
from .multipliers import CutoffLevel
from .noise import BrownianBundle, NoiseSpec, sample_brownian, refine_bundle
from .operators import maxwell_apply
from .stepping import SchemeConfig, Trajectory, run_path, trajectory_sup_distance


@dataclass
class MonteCarloSummary:
    samples: int
    mean: float
    variance: float
    ci_half_width: float

    @classmethod
    def from_values(cls, values) -> "MonteCarloSummary":
        values = np.asarray(values, dtype=float)
        m = int(values.size)
        mean = float(values.mean()) if m else 0.0
        var = float(values.var(ddof=1)) if m > 1 else 0.0
        half = 1.96 * np.sqrt(var / m) if m > 1 else 0.0
        return cls(samples=m, mean=mean, variance=var, ci_half_width=float(half))


@dataclass
class RunReport:
    """Aggregated outcome of a Monte-Carlo experiment."""

    paths: list = field(default_factory=list)          # PathReport per path
    sup_l2_squared: MonteCarloSummary | None = None
    integral_power: MonteCarloSummary | None = None
    sup_lambda_squared: MonteCarloSummary | None = None
    terminal_residual: MonteCarloSummary | None = None
    events: list = field(default_factory=list)
    convergence: list = field(default_factory=list)    # dicts of sweep tables

    @classmethod
    def from_paths(cls, paths) -> "RunReport":
        paths = sorted(paths, key=lambda p: p.path_index)
        events = []
        for p in paths:
            for e in p.events:
                events.append({"path": p.path_index, **e})
        return cls(
            paths=list(paths),
            sup_l2_squared=MonteCarloSummary.from_values(
                [p.sup_l2_squared for p in paths]),
            integral_power=MonteCarloSummary.from_values(
                [p.integral_power_norm for p in paths]),
            sup_lambda_squared=MonteCarloSummary.from_values(
                [p.sup_lambda_squared for p in paths]),
            terminal_residual=MonteCarloSummary.from_values(
                [abs(p.energy_residual[-1]) for p in paths]),
            events=events,
        )


def fit_loglog_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2:
        raise UsageError("need at least two points for a slope")
    keep = ys > 0
    if keep.sum() < 2:
        raise UsageError("need at least two positive errors for a slope")
    coeffs = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)
    return float(coeffs[0])


def energy_identity_residual(states, drifts, noises, bundle: BrownianBundle,
                             dt: float) -> np.ndarray:
    """r(t_k) for explicitly recorded series (small-run oracle).

    states: X(t_0..t_K); drifts: Y(t_0..t_{K-1}); noises: per step a list of
    Z_i fields.  Same accumulation as the in-run ledger.
    """
    k_steps = len(states) - 1
    if len(drifts) < k_steps or len(noises) < k_steps:
        raise UsageError("drift/noise series shorter than the state series")
    base = l2_norm(states[0]) ** 2
    out = np.zeros(k_steps + 1)
    drift_sum = 0.0
    noise_sum = 0.0
    for k in range(k_steps):
        x = states[k]
        quad = 2.0 * inner_product(x, drifts[k]).real
        for z in noises[k]:
            quad += l2_norm(z) ** 2
        drift_sum += dt * quad
        dbeta = bundle.values[:, k + 1] - bundle.values[:, k]
        for z, db in zip(noises[k], dbeta):
            noise_sum += 2.0 * inner_product(x, z).real * db
        out[k + 1] = l2_norm(states[k + 1]) ** 2 - base - drift_sum - noise_sum
    return out


def apriori_bound_report(reports, spec: NoiseSpec, horizon: float,
                         constant: float = 1.0, min_paths: int = 30) -> dict:
    """Left/right sides of the uniform energy estimate, with CI.

    left  = E sup_t ||y||^2 + E int ||y||_{q+2}^{q+2} dt
    right = constant * (||J~||^2 + sum ||b~_j||^2 + ||u0||^2)

    The right side is deterministic: the gauge phase is unimodular, so the
    transformed current and amplitudes have path-independent norms.
    """
    if len(reports) < min_paths:
        raise UsageError(f"need at least {min_paths} paths, got {len(reports)}")
    sup_part = MonteCarloSummary.from_values([p.sup_l2_squared for p in reports])
    int_part = MonteCarloSummary.from_values(
        [p.integral_power_norm for p in reports])
    left = sup_part.mean + int_part.mean
    left_half = sup_part.ci_half_width + int_part.ci_half_width

    times = reports[0].times
    current_sq = _source_l2_time_integral(spec, times, with_noise_coupling=True)
    amp_sq = sum(_time_integral(s.l2_series_squared(times), times)
                 for s in spec.b_sources)
    u0_sq = l2_norm(spec.u0) ** 2
    right = constant * (current_sq + amp_sq + u0_sq)
    return {
        "left": left,
        "left_ci_half_width": left_half,
        "right": right,
        "ratio": left / right if right > 0 else (0.0 if left == 0 else np.inf),
        "ok": left <= right or right == 0.0,
        "sup_term": sup_part,
        "integral_term": int_part,
    }


def _time_integral(series, times) -> float:
    return float(np.trapezoid(series, times))


def _source_l2_time_integral(spec: NoiseSpec, times, with_noise_coupling) -> float:
    """int_0^T || sum_j (-i b_j B_j) + J ||_2^2 dt (modulus is gauge-free)."""
    vals = []
    for t in times:
        total = spec.current.at(t).astype(np.complex128)
        if with_noise_coupling:
            for b_field, source in zip(spec.B_fields, spec.b_sources):
                total = total - 1j * b_field * source.at(t)
        vals.append(spec.grid.cell_volume * np.sum(np.abs(total) ** 2))
    return _time_integral(np.asarray(vals), times)


def lambda_initial_bound(spec: NoiseSpec, report_q: float, lambda0: float,
                         constant: float = 1.0) -> dict:
    """||Lambda(0)|| against c (1 + ||m u0|| + ||u0||_{2(q+1)}^{q+1} + ||u0||)."""
    m_u0 = maxwell_apply(to_spectral(spec.u0))  # its L2 norm by Parseval
    bound = constant * (1.0 + l2_norm(m_u0)
                        + lp_norm(spec.u0, 2.0 * (report_q + 1.0)) ** (report_q + 1.0)
                        + l2_norm(spec.u0))
    return {"lambda0": lambda0, "bound": bound, "ratio": lambda0 / bound,
            "ok": lambda0 <= bound}


def lambda_bound_report(reports, spec: NoiseSpec, constant: float = 1.0,
                        min_paths: int = 30) -> dict:
    """Monte-Carlo estimate of E sup_t ||Lambda||^2 and the t = 0 check."""
    if len(reports) < min_paths:
        raise UsageError(f"need at least {min_paths} paths, got {len(reports)}")
    qs = {p.q for p in reports}
    if len(qs) != 1 or None in qs:
        raise UsageError("lambda bound needs kerr runs with one exponent")
    q = qs.pop()
    if not (1.0 < q <= 2.0):
        raise UsageError(f"strong mode requires q in (1, 2], got {q}")
    sup_sq = MonteCarloSummary.from_values([p.sup_lambda_squared for p in reports])
    lambda0 = float(np.mean([p.lambda_l2[0] for p in reports]))
    initial = lambda_initial_bound(spec, q, lambda0, constant)
    return {"sup_lambda_squared": sup_sq, "initial": initial}


def strong_convergence_order(spec: NoiseSpec, cfg: SchemeConfig, kernel,
                             seeds, dts, horizon: float = 1.0,
                             refine_factor: int = 4) -> dict:
    """Strong error at T against a bridge-refined fine reference.

    All step sizes share Brownian paths: the coarsest bundle is refined
    dyadically, so coarse increments are sums of fine ones bitwise.  The
    reference runs at min(dts)/refine_factor.
    """
    dts = sorted(dts, reverse=True)
    for a, b in zip(dts, dts[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise UsageError("dts must be dyadic (each half the previous)")
    if len(dts) < 3:
        raise UsageError("need at least three step sizes")
    if refine_factor < 1 or refine_factor & (refine_factor - 1):
        raise UsageError("refine_factor must be a power of two")
    errors = {dt: [] for dt in dts}
    for seed in seeds:
        bundles = {}
        bundle = None
        for dt in dts:
            if bundle is None:
                bundle = sample_brownian(spec.count, horizon,
                                         int(round(horizon / dt)), seed)
            else:
                bundle = refine_bundle(bundle)
            bundles[dt] = bundle
        fine = bundle
        for _ in range(int(np.log2(refine_factor))):
            fine = refine_bundle(fine)
        ref_cfg = _with_dt(cfg, dts[-1] / refine_factor)
        ref = run_path(spec, ref_cfg, kernel, fine, record_fields=True,
                       path_index=seed)
        y_ref = ref.trajectory.data[-1]
        for dt in dts:
            res = run_path(spec, _with_dt(cfg, dt), kernel, bundles[dt],
                           record_fields=True, path_index=seed)
            diff = res.trajectory.data[-1] - y_ref
            errors[dt].append(np.sqrt(spec.grid.cell_volume) *
                              np.linalg.norm(diff))
    table = [(dt, float(np.mean(errors[dt]))) for dt in dts]
    mean_errors = [row[1] for row in table]
    if max(mean_errors) == 0.0:
        return {"table": table, "slope": None, "exact": True}
    slope = fit_loglog_slope([row[0] for row in table], mean_errors)
    return {"table": table, "slope": slope, "exact": False}


def _with_dt(cfg: SchemeConfig, dt: float) -> SchemeConfig:
    from dataclasses import replace

    return replace(cfg, dt=dt)


def galerkin_convergence(spec: NoiseSpec, cfg: SchemeConfig, kernel,
                         levels, seeds, horizon: float = 0.25) -> dict:
    """E sup_t ||y_{n+1} - y_n||_2 on shared paths for increasing cutoffs."""
    levels = sorted(levels)
    steps = max(1, int(round(horizon / cfg.dt)))
    rows = []
    for lo, hi in zip(levels, levels[1:]):
        gaps = []
        for seed in seeds:
            bundle = sample_brownian(spec.count, steps * cfg.dt, steps, seed)
            res_lo = run_path(spec, _with_level(cfg, lo), kernel, bundle,
                              record_fields=True)
            res_hi = run_path(spec, _with_level(cfg, hi), kernel, bundle,
                              record_fields=True)
            gaps.append(trajectory_sup_distance(res_lo.trajectory,
                                                res_hi.trajectory))
        rows.append({"levels": (lo, hi), "mean_gap": float(np.mean(gaps))})
    return {"rows": rows,
            "decreasing": all(a["mean_gap"] >= b["mean_gap"] - 1e-14
                              for a, b in zip(rows, rows[1:]))}


def _with_level(cfg: SchemeConfig, n: int) -> SchemeConfig:
    from dataclasses import replace

    return replace(cfg, cutoff_level=CutoffLevel(n))


def monotone_limit_check(u: Trajectory, v: Trajectory, growth_rate: float) -> float:
    """max_t { ||u(t)-v(t)||^2 - ||u(0)-v(0)||^2 exp(c t) }: a Gronwall witness."""
    if len(u) != len(v):
        raise UsageError("trajectories have different lengths")
    weight = np.sqrt(u.grid.cell_volume)
    gap0 = (weight * np.linalg.norm(u.data[0] - v.data[0])) ** 2
    worst = -np.inf
    for k, t in enumerate(u.times):
        gap = (weight * np.linalg.norm(u.data[k] - v.data[k])) ** 2
        worst = max(worst, gap - gap0 * np.exp(growth_rate * t))
    return float(worst)
