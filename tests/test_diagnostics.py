import numpy as np
import pytest

import mks.diagnostics
import mks.stepping
from mks.diagnostics import (
    MonteCarloSummary,
    RunReport,
    bundle_ladder,
    fit_loglog_slope,
    galerkin_convergence,
    strong_convergence_order,
)
from mks.errors import BlowUpError, UsageError
from mks.grid import (PHYSICAL, Field6, inner_product, l2_norm,
                      random_field, to_spectral, zero_field)
from mks.kerr import KerrExponent
from mks.multipliers import CutoffLevel
from mks.noise import (BrownianBundle, SeparableSource, make_noise_spec,
                       restrict_bundle, sample_brownian, zero_source)
from mks.stepping import (
    EULER_MARUYAMA,
    TSEE,
    SchemeConfig,
    Trajectory,
    path_batches,
)

from conftest import (banded_field, coords, drift_and_noise, recorded_path,
                      run_path)


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
        report, traj = recorded_path(spec, cfg, None, bundle)
        states = [to_spectral(Field6(grid8, PHYSICAL, traj.data[k]))
                  for k in range(17)]
        ctx_states = states[:-1]
        ctx = StepContext(cfg, spec)
        drifts, noises = zip(*(drift_and_noise(ctx, bundle, ctx_states[k], k)
                               for k in range(16)))
        r = energy_identity_residual(states, drifts, noises, bundle, cfg.dt)
        assert np.allclose(r, report.energy_residual, atol=1e-12)

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
        reports.append(run_path(spec, cfg, None, bundle, path_indices=[p]))
    return spec, reports


def additive_spec(grid, channels=1):
    """Constant additive noise on a banded initial field."""
    n = grid.points_per_axis
    b = SeparableSource(shape=constant_amplitude(grid, 0.1))
    return make_noise_spec(grid, [np.zeros((n, n, n))] * channels,
                           [b] * channels, zero_source(grid),
                           banded_field(grid, seed=6, level=1))


@pytest.fixture
def run_paths_calls(monkeypatch):
    """(dt, cutoff level, bundle count) of every run_paths call the
    studies make."""
    calls = []
    original = mks.diagnostics.run_paths

    def counted(spec, cfg, kernel, bundles, **kwargs):
        calls.append((cfg.dt, cfg.cutoff_level.n, len(bundles)))
        return original(spec, cfg, kernel, bundles, **kwargs)

    monkeypatch.setattr(mks.diagnostics, "run_paths", counted)
    return calls


class TestBundleLadder:
    def test_batches_are_the_path_batches_in_seed_order(self, grid8):
        seeds = list(range(20, 31))
        ladders = list(bundle_ladder(additive_spec(grid8, 2), seeds, 0.5, 4,
                                     3))
        assert [len(ladder[0]) for ladder in ladders] == \
            [len(b) for b in path_batches(8, len(seeds))] == [8, 3]
        for rung in range(3):
            assert [b.seed for ladder in ladders
                    for b in ladder[rung]] == seeds
        assert [b.steps for b in ladders[0][2]] == [16] * 8
        assert all(b.count == 2 for b in ladders[1][0])

    def test_each_rung_restricts_to_the_one_before(self, grid4):
        (ladder,) = bundle_ladder(additive_spec(grid4), [5, 6, 7], 1.0, 8, 4)
        for coarse, fine in zip(ladder, ladder[1:]):
            for a, b in zip(coarse, fine):
                restricted = restrict_bundle(b, 2)
                assert restricted.values.tobytes() == a.values.tobytes()
                assert restricted.times.tobytes() == a.times.tobytes()


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

    def test_one_run_paths_call_per_step_size(self, grid4, run_paths_calls):
        # one batch of four seeds: three step sizes and the reference at
        # 1/64 / 4; the rung at 1/128 is only refined through, never run
        strong_convergence_order(additive_spec(grid4), em_cfg(1.0, level=1),
                                 None, seeds=[1, 2, 3, 4],
                                 dts=[1 / 16, 1 / 32, 1 / 64], horizon=1.0)
        assert run_paths_calls == [(1 / 256, 1, 4), (1 / 16, 1, 4),
                                   (1 / 32, 1, 4), (1 / 64, 1, 4)]

    def test_blown_up_path_raises(self, grid4, monkeypatch):
        monkeypatch.setattr(mks.stepping, "BLOWUP_THRESHOLD", 1e-3)
        with pytest.raises(BlowUpError):
            strong_convergence_order(additive_spec(grid4),
                                     em_cfg(1.0, level=1), None, seeds=[1, 2],
                                     dts=[1 / 4, 1 / 8, 1 / 16], horizon=1.0)

    def test_requires_three_dts(self, grid4):
        spec = make_noise_spec(grid4, [], [], zero_source(grid4),
                               zero_field(grid4))
        with pytest.raises(UsageError):
            strong_convergence_order(spec, em_cfg(1.0, level=1), None, [1],
                                     [1 / 4, 1 / 8], horizon=1.0)


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

    def test_one_run_paths_call_per_level(self, grid8, run_paths_calls):
        galerkin_convergence(additive_spec(grid8), em_cfg(1 / 32, level=1),
                             None, levels=[2, 1], seeds=[1, 2, 3],
                             horizon=0.25)
        assert run_paths_calls == [(1 / 32, 1, 3), (1 / 32, 2, 3)]

    def test_blown_up_path_raises(self, grid8, monkeypatch):
        monkeypatch.setattr(mks.stepping, "BLOWUP_THRESHOLD", 1e-3)
        with pytest.raises(BlowUpError):
            galerkin_convergence(additive_spec(grid8),
                                 em_cfg(1 / 32, level=1), None,
                                 levels=[1, 2], seeds=[1, 2], horizon=0.25)


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
        _, ra = recorded_path(spec_a, cfg, None, bundle)
        _, rb = recorded_path(spec_b, cfg, None, bundle)
        worst = monotone_limit_check(ra, rb, growth_rate=2.0)
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
            _, em = recorded_path(spec, em_cfg(dt, kerr=kerr), None, bundle)
            lie_cfg = SchemeConfig(scheme=LIE_SPLITTING, dt=dt,
                                   cutoff_level=CutoffLevel(2), equation=TSEE,
                                   kerr=kerr)
            _, lie = recorded_path(spec, lie_cfg, None, bundle)
            from mks.stepping import trajectory_sup_distance

            gaps.append(trajectory_sup_distance(em, lie))
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
