"""Measurements: Monte-Carlo summaries and convergence fits.

Sweeps assert boundedness and trend, never a specific constant.
Monte-Carlo confidence intervals use half-width 1.96 * sample std /
sqrt(samples); slopes come from least squares on log-log points.  The
convergence studies run on the shared Brownian paths of ``bundle_ladder``,
one ``run_paths`` call per batch and step size (or cutoff level); a path
that blows up raises its BlowUpError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError
from .multipliers import CutoffLevel
from .noise import NoiseSpec, sample_brownian, refine_bundle
from .stepping import (MAX_STEPS, Recording, SchemeConfig, path_batches,
                       raise_blowups, run_paths, trajectory_sup_distance)

REFINE_FACTOR = 4  # strong-error reference step min(dts) / REFINE_FACTOR


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

    paths: list                     # PathReport per path
    sup_l2_squared: MonteCarloSummary
    integral_power: MonteCarloSummary
    sup_lambda_squared: MonteCarloSummary
    terminal_residual: MonteCarloSummary
    events: list

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
                             seeds, dts, horizon: float) -> dict:
    """Strong error at T against a bridge-refined fine reference.

    The step sizes and the reference, at min(dts)/REFINE_FACTOR, are rungs
    of one ``bundle_ladder``: one run_paths call per batch and step size,
    one for the reference.  A run's sink keeps the states at T only.
    """
    dts = sorted(dts, reverse=True)
    if not all(dt > 0 for dt in dts):  # rejects nan too
        raise UsageError("dts must be positive")
    if not all(np.isfinite(dts)):
        raise UsageError("dts must be finite")
    for a, b in zip(dts, dts[1:]):
        if abs(a / b - 2.0) > 1e-12:
            raise UsageError("dts must be dyadic (each half the previous)")
    if len(dts) < 3:
        raise UsageError("need at least three step sizes")
    reference = dts[-1] / REFINE_FACTOR
    if horizon / reference > MAX_STEPS:  # before the ladder is formed
        raise UsageError(f"dts: the reference step {reference:.3g} takes "
                         f"more than {MAX_STEPS} steps over horizon={horizon}")
    steps = horizon / dts[0]  # whole within validate_config's 1e-9
    if steps < 1 - 1e-9:
        raise UsageError(f"dts: the coarsest step {dts[0]:.3g} is longer "
                         f"than horizon={horizon}")
    if abs(steps - round(steps)) > 1e-9:
        raise UsageError(f"dts: the coarsest step {dts[0]:.3g} does not "
                         f"divide horizon={horizon}")

    def terminal_states(dt, bundles):
        states = np.empty((len(bundles),) + spec.u0.data.shape, np.complex128)

        def sink(k, paths, view, gauge):
            if k == bundles[0].steps:
                states[paths] = view.data

        raise_blowups(run_paths(spec, replace(cfg, dt=dt), kernel, bundles,
                                sink=sink))
        return states

    rungs = len(dts) + int(np.log2(REFINE_FACTOR))
    errors = {dt: [] for dt in dts}
    for ladder in bundle_ladder(spec, seeds, horizon, int(round(steps)),
                                rungs):
        y_ref = terminal_states(reference, ladder[-1])
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
                         levels, seeds, horizon: float) -> dict:
    """E sup_t ||y_{n+1} - y_n||_2 on shared paths between consecutive
    distinct cutoff levels (at least two), one run_paths call per batch and
    level; the sup runs over every step."""
    levels = sorted(set(levels))
    if len(levels) < 2:
        raise UsageError("need at least two distinct cutoff levels")
    steps = max(1, int(round(horizon / cfg.dt)))
    gaps = [[] for _ in levels[1:]]
    for (bundles,) in bundle_ladder(spec, seeds, steps * cfg.dt, steps, 1):
        previous = None
        for i, n in enumerate(levels):
            record = Recording(spec.grid, bundles[0].times, len(bundles),
                               inverse=False)
            raise_blowups(run_paths(
                spec, replace(cfg, cutoff_level=CutoffLevel(n)), kernel,
                bundles, sink=record))
            if previous is not None:
                gaps[i - 1] += [trajectory_sup_distance(previous.trajectory(p),
                                                        record.trajectory(p))
                                for p in range(len(bundles))]
            previous = record
    rows = [{"levels": pair, "mean_gap": float(np.mean(pair_gaps))}
            for pair, pair_gaps in zip(zip(levels, levels[1:]), gaps)]
    return {"rows": rows,
            "decreasing": all(a["mean_gap"] >= b["mean_gap"] - 1e-14
                              for a, b in zip(rows, rows[1:]))}
