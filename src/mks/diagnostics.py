"""Measurements: Monte-Carlo summaries and convergence fits.

Sweeps assert boundedness and trend, never a specific constant.
Monte-Carlo confidence intervals use half-width 1.96 * sample std /
sqrt(samples); slopes come from least squares on log-log points.  The
convergence studies run on the shared Brownian paths of ``bundle_ladder``,
one ``run_paths`` call per batch and step size (or cutoff level); a path
that blows up raises its BlowUpError.  Runs compared at every step are
stepped together and reduced as they step (``lockstep_sup_gaps``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError
from .multipliers import MAX_LEVEL, CutoffLevel
from .noise import NoiseSpec, apply_gauge, sample_brownian, refine_bundle
from .stepping import (MAX_STEPS, SchemeConfig, observed, path_batches,
                       raise_blowups, run_paths)

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
    one for the reference.  Of each run the states at T are kept.
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
        outcomes = []
        for _, _, view, _ in observed(run_paths(
                spec, replace(cfg, dt=dt), kernel, bundles), outcomes):
            pass  # the last state is t_K where no path blew up
        raise_blowups(outcomes)
        return view.data

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


def resolved_levels(grid) -> list:
    """The cutoff levels 1..MAX_LEVEL whose scale 2^n the grid resolves."""
    return [n for n in range(1, MAX_LEVEL + 1) if 2.0 ** n <= grid.nyquist]


def lockstep_sup_gaps(runs, *, inverse: bool) -> list:
    """Step ``runs``, ``run_paths`` generators on the same bundles, to their
    ends together: per pair of consecutive runs a, b, the sup over k of
    sqrt(cell_volume) ||a_k - b_k|| per path in path order, of y (of u with
    ``inverse``); then raise each run's blow-ups, in run order."""
    outcomes = [[] for _ in runs]
    runs = [observed(run, out) for run, out in zip(runs, outcomes)]
    sups = [{} for _ in runs[1:]]
    while any(states := [next(run, None) for run in runs]):
        if None in states or any(s[1] != states[0][1] for s in states):
            continue  # a run lost paths: its blow-ups are raised below
        fields = [(view if not inverse or gauge is None
                   else apply_gauge(view, gauge, "inverse")).data
                  for _, _, view, gauge in states]
        weight = np.sqrt(states[0][2].grid.cell_volume)
        for sup, a, b in zip(sups, fields, fields[1:]):
            for p, x, y in zip(states[0][1], a, b):
                gap = weight * np.linalg.norm(x - y)
                sup[p] = max(sup.get(p, gap), gap)
    for out in outcomes:
        raise_blowups(out)
    return [[float(gap) for gap in sup.values()] for sup in sups]


def galerkin_convergence(spec: NoiseSpec, cfg: SchemeConfig, kernel,
                         levels, seeds, horizon: float) -> dict:
    """E sup_t ||y_{n+1} - y_n||_2 on shared paths between consecutive
    distinct cutoff levels (at least two, each resolved by the grid), all
    stepped together per batch; the sup runs over every step."""
    levels = sorted(set(levels))
    if len(levels) < 2:
        raise UsageError("need at least two distinct cutoff levels")
    resolved = resolved_levels(spec.grid)
    for n in levels:
        if n not in resolved:
            raise UsageError(f"levels: cutoff level {n} is outside 1.."
                             f"{len(resolved)}, the levels the grid resolves")
    steps = horizon / cfg.dt  # whole within validate_config's 1e-9
    if not 1 - 1e-9 <= steps <= MAX_STEPS or abs(steps - round(steps)) > 1e-9:
        raise UsageError(f"horizon: horizon={horizon} is not a whole number "
                         f"of 1 to {MAX_STEPS} steps of dt={cfg.dt}")
    steps = int(round(steps))
    gaps = [[] for _ in levels[1:]]
    for (bundles,) in bundle_ladder(spec, seeds, steps * cfg.dt, steps, 1):
        runs = [run_paths(spec, replace(cfg, cutoff_level=CutoffLevel(n)),
                          kernel, bundles) for n in levels]
        for kept, new in zip(gaps, lockstep_sup_gaps(runs, inverse=False)):
            kept += new
    rows = [{"levels": pair, "mean_gap": float(np.mean(pair_gaps))}
            for pair, pair_gaps in zip(zip(levels, levels[1:]), gaps)]
    return {"rows": rows,
            "decreasing": all(a["mean_gap"] >= b["mean_gap"] - 1e-14
                              for a, b in zip(rows, rows[1:]))}
