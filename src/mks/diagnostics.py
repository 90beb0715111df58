"""Measurements: energy-identity residuals, bound witnesses, convergence fits.

Every estimate with an existential constant is reported as the empirical
ratio left/right with the constant set to 1; sweeps assert boundedness and
trend, never a specific constant.  Monte-Carlo confidence intervals use
half-width 1.96 * sample std / sqrt(samples); slopes come from least squares
on log-log points.  The convergence studies run on the shared Brownian
paths of ``bundle_ladder``, one ``run_paths`` call per batch and step size
(or cutoff level); a path that blows up raises its BlowUpError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import UsageError
from .grid import inner_product, l2_norm, lp_norm, to_spectral
from .multipliers import CutoffLevel
from .noise import BrownianBundle, NoiseSpec, sample_brownian, refine_bundle
from .operators import maxwell_apply
from .stepping import (SchemeConfig, Trajectory, path_batches, raise_blowups,
                       run_paths, trajectory_sup_distance)


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


def apriori_bound_report(reports, spec: NoiseSpec, horizon: float) -> dict:
    """Left/right sides of the uniform energy estimate, with CI.

    left  = E sup_t ||y||^2 + E int ||y||_{q+2}^{q+2} dt
    right = ||J~||^2 + sum ||b~_j||^2 + ||u0||^2

    The right side is deterministic: the gauge phase is unimodular, so the
    transformed current and amplitudes have path-independent norms.
    """
    if len(reports) < 30:
        raise UsageError(f"need at least 30 paths, got {len(reports)}")
    sup_part = MonteCarloSummary.from_values([p.sup_l2_squared for p in reports])
    int_part = MonteCarloSummary.from_values(
        [p.integral_power_norm for p in reports])
    left = sup_part.mean + int_part.mean
    left_half = sup_part.ci_half_width + int_part.ci_half_width

    times = reports[0].times
    current_sq = _source_l2_time_integral(spec, times)
    amp_sq = sum(_time_integral(s.l2_series_squared(times), times)
                 for s in spec.b_sources)
    u0_sq = l2_norm(spec.u0) ** 2
    right = current_sq + amp_sq + u0_sq
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


def _source_l2_time_integral(spec: NoiseSpec, times) -> float:
    """int_0^T || sum_j (-i b_j B_j) + J ||_2^2 dt (modulus is gauge-free)."""
    vals = []
    for t in times:
        total = spec.current.at(t).astype(np.complex128)
        for b_field, source in zip(spec.B_fields, spec.b_sources):
            total = total - 1j * b_field * source.at(t)
        vals.append(spec.grid.cell_volume * np.sum(np.abs(total) ** 2))
    return _time_integral(np.asarray(vals), times)


def lambda_initial_bound(spec: NoiseSpec, report_q: float,
                         lambda0: float) -> dict:
    """||Lambda(0)|| against 1 + ||m u0|| + ||u0||_{2(q+1)}^{q+1} + ||u0||."""
    m_u0 = maxwell_apply(to_spectral(spec.u0))  # its L2 norm by Parseval
    bound = (1.0 + l2_norm(m_u0)
             + lp_norm(spec.u0, 2.0 * (report_q + 1.0)) ** (report_q + 1.0)
             + l2_norm(spec.u0))
    return {"lambda0": lambda0, "bound": bound, "ratio": lambda0 / bound,
            "ok": lambda0 <= bound}


def lambda_bound_report(reports, spec: NoiseSpec) -> dict:
    """Monte-Carlo estimate of E sup_t ||Lambda||^2 and the t = 0 check."""
    if len(reports) < 30:
        raise UsageError(f"need at least 30 paths, got {len(reports)}")
    qs = {p.q for p in reports}
    if len(qs) != 1 or None in qs:
        raise UsageError("lambda bound needs kerr runs with one exponent")
    q = qs.pop()
    if not (1.0 < q <= 2.0):
        raise UsageError(f"strong mode requires q in (1, 2], got {q}")
    sup_sq = MonteCarloSummary.from_values([p.sup_lambda_squared for p in reports])
    lambda0 = float(np.mean([p.lambda_l2[0] for p in reports]))
    initial = lambda_initial_bound(spec, q, lambda0)
    return {"sup_lambda_squared": sup_sq, "initial": initial}


def bundle_ladder(spec: NoiseSpec, seeds, horizon: float, steps: int,
                  rungs: int):
    """Yield, per batch of ``path_batches`` over ``seeds`` (contiguous, in
    order), ``rungs`` lists of bundles, one per seed: the first sampled with
    ``steps`` steps on [0, horizon], each later one the bridge refinement of
    the one before (coarse increments are sums of fine ones bitwise)."""
    seeds = list(seeds)
    for batch in path_batches(spec.grid.points_per_axis, len(seeds)):
        ladder = [[sample_brownian(spec.count, horizon, steps, seeds[i])
                   for i in batch]]
        for _ in range(rungs - 1):
            ladder.append([refine_bundle(b) for b in ladder[-1]])
        yield ladder


def strong_convergence_order(spec: NoiseSpec, cfg: SchemeConfig, kernel,
                             seeds, dts, horizon: float = 1.0,
                             refine_factor: int = 4) -> dict:
    """Strong error at T against a bridge-refined fine reference.

    The step sizes and the reference, at min(dts)/refine_factor, are rungs
    of one ``bundle_ladder``: one run_paths call per batch and step size,
    one for the reference.  Paths record only t = 0 and T, whatever ``cfg``
    says.
    """
    dts = sorted(dts, reverse=True)
    for a, b in zip(dts, dts[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise UsageError("dts must be dyadic (each half the previous)")
    if len(dts) < 3:
        raise UsageError("need at least three step sizes")
    if refine_factor < 1 or refine_factor & (refine_factor - 1):
        raise UsageError("refine_factor must be a power of two")

    def terminal_states(dt, bundles):
        run = replace(cfg, dt=dt, save_stride=bundles[0].steps)
        return [res.trajectory.data[-1] for res in raise_blowups(
            run_paths(spec, run, kernel, bundles, record_fields=True))]

    rungs = len(dts) + int(np.log2(refine_factor))
    errors = {dt: [] for dt in dts}
    for ladder in bundle_ladder(spec, seeds, horizon,
                                int(round(horizon / dts[0])), rungs):
        y_ref = terminal_states(dts[-1] / refine_factor, ladder[-1])
        for dt, bundles in zip(dts, ladder):
            errors[dt] += [np.sqrt(spec.grid.cell_volume)
                           * np.linalg.norm(y - r) for y, r in
                           zip(terminal_states(dt, bundles), y_ref)]
    table = [(dt, float(np.mean(errors[dt]))) for dt in dts]
    mean_errors = [row[1] for row in table]
    if max(mean_errors) == 0.0:
        return {"table": table, "slope": None, "exact": True}
    slope = fit_loglog_slope([row[0] for row in table], mean_errors)
    return {"table": table, "slope": slope, "exact": False}


def galerkin_convergence(spec: NoiseSpec, cfg: SchemeConfig, kernel,
                         levels, seeds, horizon: float = 0.25) -> dict:
    """E sup_t ||y_{n+1} - y_n||_2 on shared paths for increasing cutoffs,
    one run_paths call per batch and level; the sup runs over every step
    (save stride 1 whatever ``cfg`` says)."""
    cfg = replace(cfg, save_stride=1)
    levels = sorted(levels)
    steps = max(1, int(round(horizon / cfg.dt)))
    gaps = [[] for _ in levels[1:]]
    for (bundles,) in bundle_ladder(spec, seeds, steps * cfg.dt, steps, 1):
        previous = None
        for i, n in enumerate(levels):
            runs = raise_blowups(run_paths(
                spec, replace(cfg, cutoff_level=CutoffLevel(n)), kernel,
                bundles, record_fields=True))
            if previous is not None:
                gaps[i - 1] += [trajectory_sup_distance(lo.trajectory,
                                                        hi.trajectory)
                                for lo, hi in zip(previous, runs)]
            previous = runs
    rows = [{"levels": pair, "mean_gap": float(np.mean(pair_gaps))}
            for pair, pair_gaps in zip(zip(levels, levels[1:]), gaps)]
    return {"rows": rows,
            "decreasing": all(a["mean_gap"] >= b["mean_gap"] - 1e-14
                              for a, b in zip(rows, rows[1:]))}


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
