"""Acceptance criteria, one test per criterion, each printing a verdict line.

Statistical criteria run with fixed seeds, so the whole module is
deterministic and reproducible.
"""

import time
from dataclasses import replace

import numpy as np

from mks.config import parse_config
from mks.diagnostics import bundle_ladder, fit_loglog_slope, lockstep_sup_gaps
from mks.grid import Field6, l2_norm, make_grid
from mks.harness import run_experiment
from mks.kerr import KerrExponent
from mks.multipliers import CutoffLevel
from mks.noise import (
    SeparableSource,
    TimeProfile,
    make_noise_spec,
    sample_brownian,
    zero_source,
)
import mks.stepping
from mks.stepping import (
    EULER_MARUYAMA,
    LIE_SPLITTING,
    MSEE,
    TSEE,
    SchemeConfig,
    raise_blowups,
    run_paths,
)

from conftest import banded_field, finished, run_path


def verdict(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def battery_verdict(criterion, records, detail, ok=True):
    """Verdict on battery records: every one must pass."""
    failed = [r["name"] for r in records if not r["passed"]]
    if failed:
        detail += f"; failed: {', '.join(failed)}"
    verdict(criterion, ok and not failed, detail)


def measured(records, prefix):
    return [r["measured"] for r in records if r["name"].startswith(prefix)]


def test_criterion_1_operator_identity_suite(batteries):
    """16^3 grid, 100 random field pairs: every operator identity within
    1e-10, transforms and cutoff masks within 1e-12, in under 60 s."""
    records, elapsed = batteries["operator"], batteries["operator_s"]
    battery_verdict(1, records,
                    f"max relative residual {max(measured(records, '')):.3e}, "
                    f"runtime {elapsed:.1f}s", ok=elapsed < 60.0)


def test_criterion_2_dense_oracle_equivalence(batteries):
    """Fast operators match explicit matrices on 4^3; exp(tm) matches expm."""
    records = batteries["dense"]
    columns = [r["measured"] for r in records if "group_exp" not in r["name"]]
    battery_verdict(2, records, (
        f"column residual {max(columns):.3e}, "
        f"group-vs-expm {max(measured(records, 'dense/group_exp')):.3e}"))


def test_criterion_3_kerr_suite(batteries):
    records = batteries["kerr"]
    battery_verdict(3, records, (
        f"fd order {min(measured(records, 'kerr/gradient_order')):.3f}, "
        f"hessian symmetry {measured(records, 'kerr/hessian')[0]:.2e}, "
        f"field gap {measured(records, 'kerr/monotonicity_fields')[0]:.2e}, "
        f"scalar gap {max(measured(records, 'kerr/monotonicity_scalars')):.2e}, "
        f"implicit residual {max(measured(records, 'kerr/implicit')):.2e}"))


def test_criterion_4_ito_energy_identity():
    """Additive-noise linear run on 16^3, N=2, T=1: residual decays >= 0.45;
    the free splitting flow conserves the norm to 1e-12."""
    g = make_grid(16, 2.0 * np.pi)
    n = 16
    u0 = banded_field(g, seed=5, level=1)
    u0 = u0.with_data(0.2 * u0.data / l2_norm(u0))
    b1 = Field6(g, "physical",
                np.full((6, n, n, n), 0.05, dtype=np.complex128))
    b2 = Field6(g, "physical",
                np.full((6, n, n, n), 0.05j, dtype=np.complex128))
    zeros = np.zeros((n, n, n))
    spec = make_noise_spec(g, [zeros, zeros],
                           [SeparableSource(shape=b1),
                            SeparableSource(shape=b2)],
                           zero_source(g), u0)
    horizon = 1.0
    dts = [1 / 64, 1 / 128, 1 / 256, 1 / 512]
    n_paths = 32
    residuals = {dt: [] for dt in dts}
    for ladder in bundle_ladder(spec, range(100, 100 + n_paths), horizon, 64,
                                len(dts)):
        for dt, bundles in zip(dts, ladder):
            cfg = SchemeConfig(scheme=EULER_MARUYAMA, dt=dt,
                               cutoff_level=CutoffLevel(2), equation=TSEE)
            runs = raise_blowups(finished(run_paths(spec, cfg, None,
                                                    bundles)))
            residuals[dt] += [abs(r.energy_residual[-1]) for r in runs]
    means = [float(np.mean(residuals[dt])) for dt in dts]
    slope = fit_loglog_slope(dts, means)

    free_u0 = banded_field(g, seed=6, level=1)
    free_u0 = free_u0.with_data(free_u0.data / l2_norm(free_u0))
    free_spec = make_noise_spec(g, [], [], zero_source(g), free_u0)
    bundle = sample_brownian(0, 1.0, 64, seed=7)
    cfg = SchemeConfig(scheme=LIE_SPLITTING, dt=1 / 64,
                       cutoff_level=CutoffLevel(2), equation=TSEE)
    free = run_path(free_spec, cfg, None, bundle)
    drift = np.max(np.abs(free.l2 - free.l2[0]))

    decreasing = all(a > b for a, b in zip(means, means[1:]))
    verdict(4, slope >= 0.45 and decreasing and drift <= 1e-12,
            f"residual means {np.round(means, 4).tolist()}, slope {slope:.3f}, "
            f"free-flow norm drift {drift:.2e}")


def test_criterion_5_gauge_duality():
    """TSEE-solve-then-untransform vs direct MSEE on shared paths: the sup-t
    L2 gap decays in dt with slope >= 0.4 (E over 64 paths, run on one
    bundle ladder in path batches)."""
    t0 = time.monotonic()
    g = make_grid(8, 2.0 * np.pi)
    n = 8
    x = g.axes().reshape(n, 1, 1)
    B1 = 0.25 * np.cos(np.broadcast_to(x, (n, n, n)))
    const = np.ones((6, n, n, n), dtype=np.complex128) \
        * (0.2 + 0.1j * np.arange(6)[:, None, None, None])
    b = SeparableSource(shape=Field6(g, "physical", const),
                        profile=TimeProfile("cos", 1.0))
    u0 = banded_field(g, seed=5, scale=0.5, level=1)
    J = SeparableSource(shape=banded_field(g, seed=7, scale=0.2, level=1))
    spec = make_noise_spec(g, [B1], [b], J, u0)

    horizon = 0.5
    dts = [horizon / 16, horizon / 32, horizon / 64, horizon / 128]
    kerr = KerrExponent(2.0, strong_mode=True)
    n_paths = 64
    gaps = {dt: [] for dt in dts}
    for ladder in bundle_ladder(spec, range(1000, 1000 + n_paths), horizon,
                                16, len(dts)):
        for dt, bundles in zip(dts, ladder):
            cfg_t = SchemeConfig(scheme=EULER_MARUYAMA, dt=dt,
                                 cutoff_level=CutoffLevel(2), equation=TSEE,
                                 kerr=kerr)
            cfg_m = replace(cfg_t, equation=MSEE)
            # tsee in the u frame against msee, which forms no phase (u = y)
            (pair_gaps,) = lockstep_sup_gaps(
                [run_paths(spec, cfg, None, bundles)
                            for cfg in (cfg_t, cfg_m)], inverse=True)
            gaps[dt] += pair_gaps
    means = [float(np.mean(gaps[dt])) for dt in dts]
    slope = fit_loglog_slope(dts, means)
    elapsed = time.monotonic() - t0
    verdict(5, slope >= 0.4 and elapsed < 600.0,
            f"gap means {np.round(means, 4).tolist()}, slope {slope:.3f}, "
            f"runtime {elapsed:.0f}s")


UNIFORMITY_RUN = """
[grid]
points = {points}
length = 3.141592653589793
[model]
q = 2.0
mode = strong
[noise]
count = 1
B_1 = plane-wave(amplitude=0.2, mode=1 0 0)
b_1 = constant(value=0.05)
J = constant(value=0.05, component=1)
u0 = plane-wave(amplitude=0.4, mode=1 0 0, component=0)
[scheme]
dt = 0.015625
cutoff = {level}
horizon = 0.25
[monte_carlo]
paths = 30
base_seed = 300
"""


def test_criterion_6_apriori_uniformity(tmp_path):
    """Cutoff sweep n in {3,4,5} on matching 8^3-32^3 grids (L = pi, 30
    paths): the energy and Lambda statistics stay within a factor 2 across
    levels."""
    energies = {}
    lambdas = {}
    for level, points in ((3, 8), (4, 16), (5, 32)):
        report, status = run_experiment(
            parse_config(UNIFORMITY_RUN.format(points=points, level=level)),
            workers=1, out_dir=tmp_path / f"level{level}")
        assert status == 0, report.events
        energies[level] = (report.sup_l2_squared.mean
                           + report.integral_power.mean)
        lambdas[level] = report.sup_lambda_squared.mean
    e_vals = list(energies.values())
    l_vals = list(lambdas.values())
    e_ratio = max(e_vals) / min(e_vals)
    l_ratio = max(l_vals) / min(l_vals)
    verdict(6, e_ratio <= 2.0 and l_ratio <= 2.0,
            f"energy by level {energies} (max/min {e_ratio:.3f}), "
            f"lambda by level {lambdas} (max/min {l_ratio:.3f})")


def test_criterion_7_memory_law(batteries):
    records = batteries["memory"]
    battery_verdict(7, records, (
        f"quadrature order {measured(records, 'memory/quadrature')[0]:.3f}, "
        f"picard ratio {measured(records, 'memory/picard')[0]:.3e}, "
        f"T0(1,0,1) = {measured(records, 'memory/contraction')[0]}"))


ACCEPTANCE_RUN = """
[grid]
points = 8
length = 6.283185307179586

[model]
q = 2.0
mode = strong
equation = tsee

[noise]
count = 2
B_1 = plane-wave(amplitude=0.2, mode=1 0 0)
B_2 = zero
b_1 = constant(value=0.1) * cos(1.0)
b_2 = band-limited-random(seed=9, amplitude=0.05, max_mode=1)
J = band-limited-random(seed=3, amplitude=0.1, max_mode=1)
u0 = band-limited-random(seed=5, amplitude=0.5, max_mode=1)

[scheme]
type = lie_splitting
dt = 0.03125
cutoff = 2
horizon = 0.25

[monte_carlo]
paths = 6
base_seed = 424242
"""


def test_criterion_8_determinism(tmp_path, monkeypatch):
    """Identical CSV bytes for batches of 1, 3 and all 6 paths, each with 1
    and 3 workers."""
    cfg = parse_config(ACCEPTANCE_RUN)
    outputs = {}
    for per_batch in (1, 3, cfg.paths):
        monkeypatch.setattr(mks.stepping, "BATCH_VALUES",
                            per_batch * 6 * cfg.grid_points**3)
        assert len(mks.stepping.path_batches(cfg.grid_points, cfg.paths)) == \
            -(-cfg.paths // per_batch)
        for workers in (1, 3):
            out = tmp_path / f"b{per_batch}w{workers}"
            run_experiment(cfg, workers=workers, out_dir=out)
            outputs[per_batch, workers] = [(out / name).read_bytes() for name
                                           in ("summary.csv", "series.csv")]
    first = next(iter(outputs.values()))
    verdict(8, all(o == first for o in outputs.values()),
            "summary and series CSVs bitwise identical across batch sizes "
            f"{sorted({b for b, _ in outputs})} and worker counts 1 and 3")
