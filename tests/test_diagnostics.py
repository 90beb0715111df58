import numpy as np
import pytest

from mks.diagnostics import (
    MonteCarloSummary,
    RunReport,
    apriori_bound_report,
    energy_identity_residual,
    fit_loglog_slope,
    galerkin_convergence,
    lambda_bound_report,
    monotone_limit_check,
    strong_convergence_order,
)
from mks.errors import UsageError
from mks.grid import Field6, l2_norm, random_field, to_spectral, zero_field
from mks.kerr import KerrExponent
from mks.multipliers import CutoffLevel
from mks.noise import SeparableSource, make_noise_spec, sample_brownian, zero_source
from mks.stepping import (
    EULER_MARUYAMA,
    TSEE,
    SchemeConfig,
    Trajectory,
    run_path,
)

from conftest import banded_field, coords


def em_cfg(dt, level=2, kerr=None):
    return SchemeConfig(scheme=EULER_MARUYAMA, dt=dt,
                        cutoff_level=CutoffLevel(level), equation=TSEE,
                        kerr=kerr)


def constant_amplitude(grid, value):
    n = grid.points_per_axis
    return Field6(grid, "physical",
                  np.full((6, n, n, n), value, dtype=np.complex128))


class TestMonteCarloSummary:
    def test_ci_formula(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        mc = MonteCarloSummary.from_values(vals)
        assert mc.samples == 4
        assert np.isclose(mc.mean, 2.5)
        assert np.isclose(mc.variance, np.var(vals, ddof=1))
        assert np.isclose(mc.ci_half_width,
                          1.96 * np.sqrt(mc.variance / 4))

    def test_single_sample(self):
        mc = MonteCarloSummary.from_values([3.0])
        assert mc.variance == 0.0 and mc.ci_half_width == 0.0


class TestSlopeFit:
    def test_exact_power_law(self):
        xs = [1.0, 0.5, 0.25]
        ys = [2.0 * x**1.5 for x in xs]
        assert np.isclose(fit_loglog_slope(xs, ys), 1.5)

    def test_needs_two_points(self):
        with pytest.raises(UsageError):
            fit_loglog_slope([1.0], [1.0])


class TestEnergyResidual:
    def test_constant_trajectory_zero_residual(self, grid4):
        u = random_field(grid4, seed=1)
        states = [u] * 5
        zeros = zero_field(grid4)
        drifts = [zeros] * 4
        noises = [[]] * 4
        bundle = sample_brownian(0, 1.0, 4, seed=1)
        r = energy_identity_residual(states, drifts, noises, bundle, 0.25)
        assert np.max(np.abs(r)) == 0.0

    def test_pure_additive_noise_closed_form(self, grid4):
        # X_{k+1} = X_k + Z dbeta with X_0 = 0: the residual telescopes to
        # sum ||Z||^2 (dbeta^2 - dt), computable in closed form
        z = constant_amplitude(grid4, 0.3)
        bundle = sample_brownian(1, 1.0, 16, seed=2)
        dt = 1.0 / 16
        states = [zero_field(grid4)]
        for k in range(16):
            db = bundle.values[0, k + 1] - bundle.values[0, k]
            states.append(states[-1].with_data(states[-1].data + db * z.data))
        drifts = [zero_field(grid4)] * 16
        noises = [[z]] * 16
        r = energy_identity_residual(states, drifts, noises, bundle, dt)
        dbeta = np.diff(bundle.values[0])
        expected = np.cumsum(l2_norm(z) ** 2 * (dbeta**2 - dt))
        assert np.allclose(r[1:], expected, rtol=1e-10)

    def test_matches_run_path_ledger(self, grid8):
        from mks.stepping import StepContext

        b = SeparableSource(shape=constant_amplitude(grid8, 0.1))
        n = grid8.points_per_axis
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))], [b],
                               zero_source(grid8), banded_field(grid8, seed=3))
        bundle = sample_brownian(1, 0.5, 16, seed=3)
        cfg = em_cfg(0.5 / 16, kerr=KerrExponent(2.0, True))
        res = run_path(spec, cfg, None, bundle, record_fields=True)
        states = [to_spectral(res.trajectory.state(k)) for k in range(17)]
        ctx_states = states[:-1]
        ctx = StepContext(cfg, spec, bundle)
        drifts = [ctx.drift(ctx_states[k], float(bundle.times[k]))
                  for k in range(16)]
        noises = [ctx.noise(ctx_states[k], float(bundle.times[k]))
                  for k in range(16)]
        r = energy_identity_residual(states, drifts, noises, bundle, cfg.dt)
        assert np.allclose(r, res.report.energy_residual, atol=1e-12)

    def test_length_mismatch(self, grid4):
        states = [zero_field(grid4)] * 3
        bundle = sample_brownian(0, 1.0, 2, seed=4)
        with pytest.raises(UsageError):
            energy_identity_residual(states, [], [], bundle, 0.5)


def _mc_reports(grid, n_paths=30, j_scale=0.1, seed0=100, kerr=None,
                level=1, steps=16, horizon=0.5):
    J = SeparableSource(shape=constant_amplitude(grid, j_scale))
    b = SeparableSource(shape=constant_amplitude(grid, 0.05))
    n = grid.points_per_axis
    spec = make_noise_spec(grid, [np.zeros((n, n, n))], [b], J,
                           banded_field(grid, seed=5, scale=0.3))
    cfg = em_cfg(horizon / steps, level=level, kerr=kerr)
    reports = []
    for p in range(n_paths):
        bundle = sample_brownian(1, horizon, steps, seed=seed0 + p)
        reports.append(run_path(spec, cfg, None, bundle, path_index=p).report)
    return spec, reports


class TestAprioriBound:
    def test_zero_inputs(self, grid4):
        spec = make_noise_spec(grid4, [], [], zero_source(grid4),
                               zero_field(grid4))
        cfg = em_cfg(1 / 16, level=1, kerr=KerrExponent(2.0, True))
        reports = []
        for p in range(30):
            bundle = sample_brownian(0, 1.0, 16, seed=p)
            reports.append(run_path(spec, cfg, None, bundle,
                                    path_index=p).report)
        out = apriori_bound_report(reports, spec, 1.0)
        assert out["left"] == 0.0
        assert out["right"] == 0.0
        assert out["ok"]

    def test_min_paths_enforced(self, grid4):
        spec = make_noise_spec(grid4, [], [], zero_source(grid4),
                               zero_field(grid4))
        with pytest.raises(UsageError):
            apriori_bound_report([], spec, 1.0)

    def test_forcing_linear_response(self, grid4):
        # doubling the forcing scales E sup ||y||^2 by ~4 in the linear regime
        spec1, rep1 = _mc_reports(grid4, j_scale=0.05, kerr=None)
        spec2, rep2 = _mc_reports(grid4, j_scale=0.10, kerr=None)
        out1 = apriori_bound_report(rep1, spec1, 0.5)
        out2 = apriori_bound_report(rep2, spec2, 0.5)
        # the right side scales with ||J||^2, and the ratio stays put
        assert out2["right"] > out1["right"]
        assert 0.2 < out2["ratio"] / out1["ratio"] < 5.0


class TestLambdaBound:
    def test_zero_everything(self, grid4):
        spec = make_noise_spec(grid4, [], [], zero_source(grid4),
                               zero_field(grid4))
        cfg = em_cfg(1 / 16, level=1, kerr=KerrExponent(2.0, True))
        reports = [run_path(spec, cfg, None,
                            sample_brownian(0, 1.0, 16, seed=p),
                            path_index=p).report for p in range(30)]
        out = lambda_bound_report(reports, spec)
        assert out["sup_lambda_squared"].mean == 0.0
        assert out["initial"]["ok"]

    def test_rejects_weak_exponent(self, grid4):
        spec, reports = _mc_reports(grid4, kerr=KerrExponent(3.0))
        with pytest.raises(UsageError):
            lambda_bound_report(reports, spec)

    def test_initial_value_bound(self, grid4):
        spec, reports = _mc_reports(grid4, kerr=KerrExponent(2.0, True))
        out = lambda_bound_report(reports, spec)
        assert out["initial"]["ok"]
        assert out["sup_lambda_squared"].mean >= 0.0


class TestStrongConvergence:
    def test_zero_inputs_exact(self, grid4):
        spec = make_noise_spec(grid4, [], [], zero_source(grid4),
                               zero_field(grid4))
        cfg = em_cfg(1.0, level=1, kerr=None)
        out = strong_convergence_order(spec, cfg, None, seeds=[1, 2],
                                       dts=[1 / 4, 1 / 8, 1 / 16],
                                       horizon=0.5)
        assert out["exact"] and out["slope"] is None

    def test_additive_linear_order(self, grid8):
        # the initial filter must leave live modes behind, so the free
        # rotation contributes a real O(dt) drift error
        b = SeparableSource(shape=constant_amplitude(grid8, 0.1))
        n = grid8.points_per_axis
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))], [b],
                               zero_source(grid8),
                               banded_field(grid8, seed=6, level=1))
        cfg = em_cfg(1.0, level=2)
        out = strong_convergence_order(spec, cfg, None, seeds=[1, 2, 3, 4],
                                       dts=[1 / 8, 1 / 16, 1 / 32],
                                       horizon=0.5)
        assert out["slope"] >= 0.4

    def test_requires_three_dts(self, grid4):
        spec = make_noise_spec(grid4, [], [], zero_source(grid4),
                               zero_field(grid4))
        with pytest.raises(UsageError):
            strong_convergence_order(spec, em_cfg(1.0, level=1), None, [1],
                                     [1 / 4, 1 / 8])


class TestGalerkinConvergence:
    def test_band_limited_free_evolution_identical(self, grid16):
        # u0 inside every smooth plateau from level 3 on: trajectories coincide
        from conftest import plane_wave

        u0 = plane_wave(grid16, (1, 0, 0), component=2)
        spec = make_noise_spec(grid16, [], [], zero_source(grid16), u0)
        cfg = em_cfg(1 / 32, level=2)
        out = galerkin_convergence(spec, cfg, None, levels=[2, 3], seeds=[1],
                                   horizon=0.25)
        assert out["rows"][0]["mean_gap"] <= 1e-12

    def test_smooth_bump_decreasing(self, grid16):
        x, y, z = coords(grid16)
        L = grid16.box_length
        bump = np.exp(-((x - L / 2) ** 2 + (y - L / 2) ** 2 + (z - L / 2) ** 2)
                      / (2 * (0.18 * L) ** 2))
        n = grid16.points_per_axis
        data = np.zeros((6, n, n, n), dtype=np.complex128)
        data[0] = bump
        u0 = Field6(grid16, "physical", data)
        spec = make_noise_spec(grid16, [], [], zero_source(grid16), u0)
        cfg = em_cfg(1 / 32, level=1)
        out = galerkin_convergence(spec, cfg, None, levels=[1, 2, 3],
                                   seeds=[1], horizon=0.25)
        gaps = [r["mean_gap"] for r in out["rows"]]
        assert out["decreasing"]
        assert gaps[0] > gaps[-1] > 0.0


class TestMonotoneLimit:
    def _traj(self, grid, data_list, dt):
        times = np.arange(len(data_list)) * dt
        return Trajectory(grid=grid, times=times, data=np.stack(data_list))

    def test_identical_runs(self, grid4):
        u = random_field(grid4, seed=7)
        traj = self._traj(grid4, [u.data] * 4, 0.1)
        assert monotone_limit_check(traj, traj, growth_rate=1.0) <= 0.0

    def test_perturbed_initial_data_within_gronwall(self, grid8):
        # gap(t) <= gap(0) e^{ct} along the dissipative dynamics
        u0 = banded_field(grid8, seed=8)
        spec_a = make_noise_spec(grid8, [], [], zero_source(grid8), u0)
        eps = 1e-3
        u0b = u0.with_data(u0.data * (1.0 + eps))
        spec_b = make_noise_spec(grid8, [], [], zero_source(grid8), u0b)
        cfg = em_cfg(1 / 64, kerr=KerrExponent(2.0, True))
        bundle = sample_brownian(0, 0.5, 32, seed=9)
        ra = run_path(spec_a, cfg, None, bundle, record_fields=True)
        rb = run_path(spec_b, cfg, None, bundle, record_fields=True)
        worst = monotone_limit_check(ra.trajectory, rb.trajectory,
                                     growth_rate=2.0)
        assert worst <= 1e-12

    def test_different_schemes_gap_shrinks_with_dt(self, grid8):
        from mks.stepping import LIE_SPLITTING

        u0 = banded_field(grid8, seed=10)
        spec = make_noise_spec(grid8, [], [], zero_source(grid8), u0)
        gaps = []
        for steps in (16, 32, 64):
            dt = 0.5 / steps
            bundle = sample_brownian(0, 0.5, steps, seed=11)
            kerr = KerrExponent(2.0, True)
            em = run_path(spec, em_cfg(dt, kerr=kerr), None, bundle,
                          record_fields=True)
            lie_cfg = SchemeConfig(scheme=LIE_SPLITTING, dt=dt,
                                   cutoff_level=CutoffLevel(2), equation=TSEE,
                                   kerr=kerr)
            lie = run_path(spec, lie_cfg, None, bundle, record_fields=True)
            from mks.stepping import trajectory_sup_distance

            gaps.append(trajectory_sup_distance(em.trajectory, lie.trajectory))
        assert gaps[0] > gaps[1] > gaps[2]


class TestRunReportAggregation:
    def test_event_collection_and_ordering(self, grid4):
        spec, reports = _mc_reports(grid4, n_paths=4, kerr=None)
        reports[2].events.append({"kind": "test_event"})
        shuffled = [reports[2], reports[0], reports[3], reports[1]]
        agg = RunReport.from_paths(shuffled)
        assert [p.path_index for p in agg.paths] == [0, 1, 2, 3]
        assert agg.events == [{"path": 2, "kind": "test_event"}]
        assert agg.sup_l2_squared.samples == 4
