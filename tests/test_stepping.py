from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import mks.grid
import mks.kerr
import mks.memory
import mks.stepping
from mks.errors import BlowUpError, ConfigurationError, UsageError
from mks.galerkin import GalerkinSpace
from mks.grid import (PHYSICAL, Field6, l2_norm, lp_norm, random_field,
                      to_physical, to_spectral, zero_field)
from mks.kerr import KerrExponent
from mks.memory import History, exponential_kernel
from mks.multipliers import CutoffLevel, sharp_cutoff, sharp_mask, smooth_cutoff
from mks.noise import (
    BrownianBundle,
    SeparableSource,
    TimeProfile,
    apply_gauge,
    freeze_bundle_at_exit,
    gauge_phase,
    make_noise_spec,
    refine_bundle,
    sample_brownian,
    zero_source,
)
from mks.operators import MAXWELL, SHARP_CUTOFF, dense_operator
from mks.stepping import (
    EULER_MARUYAMA,
    LIE_SPLITTING,
    MSEE,
    TSEE,
    WSEE,
    SchemeConfig,
    StepContext,
    initial_coefficients,
    run_paths,
    solve_with_memory,
    step_euler_maruyama,
    trajectory_sup_distance,
    _noise_increment,
)

from conftest import (
    banded_field,
    coords,
    drift_A_apply,
    drift_and_noise,
    fan_out,
    plane_wave,
    recorded_path,
    recording,
    run_path,
    transformed_current,
    transformed_noise,
)


def cos_multiplier(grid, amplitude=0.25):
    x, _, _ = coords(grid)
    n = grid.points_per_axis
    return amplitude * np.cos(np.broadcast_to(x, (n, n, n)))


def constant_amplitude(grid, value=0.1):
    n = grid.points_per_axis
    return Field6(grid, "physical",
                  np.full((6, n, n, n), value, dtype=np.complex128))


def free_spec(grid, u0):
    return make_noise_spec(grid, [], [], zero_source(grid), u0)


def start_of(spec, cfg):
    """The packed start state run_path builds for cfg."""
    return initial_coefficients(spec, cfg.equation, cfg.cutoff_level)


def grid_index(bundle, t):
    """The index of the grid time t of a bundle."""
    (k,) = np.flatnonzero(bundle.times == t)
    return int(k)


def em_cfg(dt, level=2, equation=TSEE, kerr=None, **kw):
    return SchemeConfig(scheme=EULER_MARUYAMA, dt=dt,
                        cutoff_level=CutoffLevel(level), equation=equation,
                        kerr=kerr, **kw)


def lie_cfg(dt, level=2, equation=TSEE, kerr=None, **kw):
    return SchemeConfig(scheme=LIE_SPLITTING, dt=dt,
                        cutoff_level=CutoffLevel(level), equation=equation,
                        kerr=kerr, **kw)


class TestSchemeConfig:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            SchemeConfig(scheme="heun", dt=0.1, cutoff_level=CutoffLevel(2))

    def test_rejects_unknown_equation(self):
        with pytest.raises(ConfigurationError):
            SchemeConfig(scheme=EULER_MARUYAMA, dt=0.1,
                         cutoff_level=CutoffLevel(2), equation="磁")

    def test_rejects_level_zero(self):
        with pytest.raises(ConfigurationError):
            SchemeConfig(scheme=EULER_MARUYAMA, dt=0.1,
                         cutoff_level=CutoffLevel(0))


class TestInitialState:
    def test_band_limited_datum_passes_through(self, grid8):
        # radially inside the smooth plateau of S_{n-1}: 1 + |k|^2 <= 2
        u0 = plane_wave(grid8, (1, 0, 0), component=1)
        spec = free_spec(grid8, u0)
        y0 = start_of(spec, em_cfg(0.1, level=2))
        assert np.max(np.abs(to_physical(y0).data - u0.data)) < 1e-13

    def test_high_mode_removed(self, grid8):
        u0 = plane_wave(grid8, (3, 0, 0))  # 1 + 9 = 10 > 2^{n+1} for n-1 = 1
        spec = free_spec(grid8, u0)
        y0 = start_of(spec, em_cfg(0.1, level=2))
        assert l2_norm(y0) < 1e-13 * l2_norm(u0)

    def test_norm_never_grows(self, grid8):
        u0 = random_field(grid8, seed=1)
        spec = free_spec(grid8, u0)
        y0 = start_of(spec, em_cfg(0.1, level=2))
        assert l2_norm(y0) <= l2_norm(u0)

    def test_wsee_uses_sharp_projection(self, grid8):
        u0 = random_field(grid8, seed=2)
        spec = free_spec(grid8, u0)
        y0 = start_of(spec, em_cfg(0.1, level=2, equation=WSEE))
        expected = sharp_cutoff(to_spectral(u0), CutoffLevel(2))
        assert np.array_equal(y0.data, expected.data)

    def test_cutoff_above_nyquist_rejected(self, grid8):
        spec = free_spec(grid8, random_field(grid8, seed=3))
        with pytest.raises(ConfigurationError):
            start_of(spec, em_cfg(0.1, level=3))  # 2^3 = 8 > Nyquist 4


class TestEulerStep:
    def test_zero_stays_zero(self, grid8):
        spec = free_spec(grid8, zero_field(grid8))
        bundle = sample_brownian(0, 1.0, 16, seed=1)
        report = run_path(spec, em_cfg(1 / 16), None, bundle)
        assert np.max(report.l2) == 0.0

    def test_one_step_forcing_only(self, grid8):
        # from zero state: y_1 = dt P_n Jtilde(0) + sum S_{n-1} btilde_i(0) dbeta_i
        b = SeparableSource(shape=banded_field(grid8, seed=4, scale=0.2))
        J = SeparableSource(shape=banded_field(grid8, seed=5, scale=0.3))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b], J,
                               zero_field(grid8))
        bundle = sample_brownian(1, 1.0, 16, seed=2)
        cfg = em_cfg(1 / 16)
        jt = transformed_current(0, spec, bundle)
        proj = to_physical(sharp_cutoff(to_spectral(jt), cfg.cutoff_level))
        bt = transformed_noise(0, 0, spec, bundle)
        filt = to_physical(smooth_cutoff(to_spectral(bt), CutoffLevel(1)))
        dbeta = bundle.values[0, 1] - bundle.values[0, 0]
        expected = cfg.dt * proj.data + dbeta * filt.data

        y0 = start_of(spec, cfg)
        ctx = StepContext(cfg, spec)
        new = step_euler_maruyama(y0, 0.0, bundle.values[:, 1]
                                  - bundle.values[:, 0], ctx,
                                  *drift_and_noise(ctx, bundle, y0, 0),
                                  None, gauge_phase(spec, bundle, 0))
        assert np.max(np.abs(to_physical(new).data - expected)) < 1e-14

    def test_step_recomposition_is_bitwise(self, grid8):
        # one Euler step equals y + dt Lambda + noise increment, recomputed
        b = SeparableSource(shape=banded_field(grid8, seed=6, scale=0.2),
                            profile=TimeProfile("cos", 1.0))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b],
                               zero_source(grid8), banded_field(grid8, seed=7))
        bundle = sample_brownian(1, 1.0, 16, seed=3)
        cfg = em_cfg(1 / 16, kerr=KerrExponent(2.0, True))
        y = start_of(spec, cfg)
        for k in range(3):
            lam, zs = drift_and_noise(StepContext(cfg, spec), bundle, y, k)
            dbeta = bundle.values[:, k + 1] - bundle.values[:, k]
            incr = cfg.dt * lam.data + _noise_increment(zs, dbeta)
            expected = y.data + incr
            ctx = StepContext(cfg, spec)
            y = step_euler_maruyama(y, float(bundle.times[k]), dbeta, ctx,
                                    *drift_and_noise(ctx, bundle, y, k),
                                    None, gauge_phase(spec, bundle, k))
            assert np.array_equal(y.data, expected)

    def test_deterministic_linear_matches_dense_ode(self, grid4):
        # F off, noise off: EM against expm of the dense projected generator;
        # the state starts sharply projected so the dynamics are nontrivial
        u0 = banded_field(grid4, seed=8)
        spec = free_spec(grid4, u0)
        level = CutoffLevel(1)
        proj = dense_operator(SHARP_CUTOFF, grid4, level=1).matrix
        gen = proj @ dense_operator(MAXWELL, grid4).matrix
        horizon = 0.5
        errs = []
        dts = [horizon / 8, horizon / 16, horizon / 32]
        y0_hat = sharp_cutoff(to_spectral(u0), level)
        y0 = to_physical(y0_hat)
        ref = scipy.linalg.expm(horizon * gen) @ y0.data.ravel()
        assert np.linalg.norm(gen @ y0.data.ravel()) > 1.0  # honest dynamics
        for dt in dts:
            steps = int(round(horizon / dt))
            bundle = sample_brownian(0, horizon, steps, seed=4)
            _, traj = recorded_path(spec, em_cfg(dt, level=1), None, bundle,
                                    initial=y0_hat)
            errs.append(np.linalg.norm(traj.data[-1].ravel() - ref))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestLieSplitting:
    def test_free_flow_is_exact_group(self, grid8):
        u0 = banded_field(grid8, seed=9)
        spec = free_spec(grid8, u0)
        dt = 0.25  # large step: still exact
        bundle = sample_brownian(0, 1.0, 4, seed=5)
        _, traj = recorded_path(spec, lie_cfg(dt), None, bundle)
        from mks.operators import maxwell_group

        y0 = start_of(spec, lie_cfg(dt))
        exact = to_physical(maxwell_group(1.0, y0))
        gap = np.max(np.abs(traj.data[-1] - exact.data))
        assert gap < 1e-12 * np.max(np.abs(exact.data))

    def test_free_flow_conserves_norm(self, grid8):
        u0 = banded_field(grid8, seed=10)
        u0 = u0.with_data(u0.data / l2_norm(u0))
        spec = free_spec(grid8, u0)
        bundle = sample_brownian(0, 1.0, 64, seed=6)
        report = run_path(spec, lie_cfg(1 / 64), None, bundle)
        assert np.max(np.abs(report.l2 - report.l2[0])) <= 1e-12
        # the energy-identity residual is exact for the isometric flow
        assert np.max(np.abs(report.energy_residual)) <= 1e-12

    def test_kerr_only_is_dissipative(self, grid8):
        u0 = banded_field(grid8, seed=11)
        spec = free_spec(grid8, u0)
        bundle = sample_brownian(0, 1.0, 32, seed=7)
        cfg = lie_cfg(1 / 32, kerr=KerrExponent(2.0, True))
        report = run_path(spec, cfg, None, bundle)
        assert np.all(np.diff(report.l2) <= 1e-13)

    def test_discrete_energy_inequality(self, grid8):
        # ||y_k||^2 + 2 sum dt ||y_{j+1}||_{q+2}^{q+2} <= ||y_0||^2 + O(dt)
        u0 = banded_field(grid8, seed=12)
        spec = free_spec(grid8, u0)
        dt = 1 / 64
        bundle = sample_brownian(0, 1.0, 64, seed=8)
        cfg = lie_cfg(dt, kerr=KerrExponent(2.0, True))
        r = run_path(spec, cfg, None, bundle)
        lhs = r.l2**2 + 2 * np.concatenate(
            [[0.0], np.cumsum(dt * r.power_norm[1:])])
        assert np.all(lhs <= r.l2[0] ** 2 + 10 * dt)

    def test_strong_order_at_least_half(self, grid8, monkeypatch):
        import mks.diagnostics
        from mks.diagnostics import strong_convergence_order

        b = SeparableSource(shape=constant_amplitude(grid8, 0.1))
        n = grid8.points_per_axis
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))], [b],
                               zero_source(grid8),
                               banded_field(grid8, seed=13))
        cfg = lie_cfg(1.0, kerr=KerrExponent(2.0, True))
        monkeypatch.setattr(mks.diagnostics, "REFINE_FACTOR", 16)
        out = strong_convergence_order(spec, cfg, None, seeds=[1, 2, 3, 4],
                                       dts=[1 / 8, 1 / 16, 1 / 32],
                                       horizon=0.5)
        assert out["slope"] >= 0.5


class TestLambdaProcess:
    def test_zero_state_zero_drift(self, grid8):
        spec = free_spec(grid8, zero_field(grid8))
        bundle = sample_brownian(0, 1.0, 16, seed=9)
        cfg = em_cfg(1 / 16, kerr=KerrExponent(2.0, True))
        y0 = start_of(spec, cfg)
        lam, _ = drift_and_noise(StepContext(cfg, spec), bundle, y0, 0)
        assert l2_norm(lam) == 0.0

    def test_linear_case_is_projected_maxwell(self, grid8):
        u0 = banded_field(grid8, seed=14)
        spec = free_spec(grid8, u0)
        bundle = sample_brownian(0, 1.0, 16, seed=10)
        cfg = em_cfg(1 / 16)
        y0 = start_of(spec, cfg)
        lam, _ = drift_and_noise(StepContext(cfg, spec), bundle, y0, 0)
        from mks.operators import maxwell_apply

        expected = sharp_cutoff(maxwell_apply(y0), cfg.cutoff_level)
        assert np.max(np.abs(lam.data - expected.data)) < 1e-13

    def test_gauged_terms_match_oracles(self, grid8):
        # tsee at a time with beta != 0: Lambda = P_n[m y - F(y) + A(t) y + J~]
        # and Z = S_{n-1} b~, against the direct formulas
        from mks.kerr import kerr_force
        from mks.operators import maxwell_apply

        b = SeparableSource(shape=banded_field(grid8, seed=15, scale=0.2),
                            profile=TimeProfile("cos", 1.0))
        J = SeparableSource(shape=banded_field(grid8, seed=16, scale=0.3))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b], J,
                               banded_field(grid8, seed=17))
        bundle = sample_brownian(1, 1.0, 16, seed=11)
        cfg = em_cfg(1 / 16, kerr=KerrExponent(2.0, True))
        y_hat = start_of(spec, cfg)
        y = to_physical(y_hat)
        assert bundle.values[0, 5] != 0.0
        ctx = StepContext(cfg, spec)
        raw = (to_physical(maxwell_apply(to_spectral(y))).data
               - kerr_force(y, cfg.kerr).data
               + drift_A_apply(y, 5, spec, bundle).data
               + transformed_current(5, spec, bundle).data)
        expected = to_physical(sharp_cutoff(
            to_spectral(y.with_data(raw)), cfg.cutoff_level))
        lam, (z,) = drift_and_noise(ctx, bundle, y_hat, 5)
        lam = to_physical(lam)
        assert np.max(np.abs(lam.data - expected.data)) < 1e-12
        noise = to_physical(smooth_cutoff(
            to_spectral(transformed_noise(0, 5, spec, bundle)), CutoffLevel(1)))
        assert np.max(np.abs(to_physical(z).data - noise.data)) < 1e-13


class TestEvaluationCounts:
    """run_path evaluates Lambda, Z and the memory term once per step and the
    steppers reuse them; Lie splitting re-evaluates only the noise, at the
    propagated state."""

    STEPS = 8

    def _counted_run(self, grid4, monkeypatch, make_cfg, equation):
        counts = {"drift": 0, "noise": 0, "memory": 0}
        for name in ("drift", "noise"):
            original = getattr(StepContext, name)

            def counted(self, *args, _name=name, _original=original, **kw):
                counts[_name] += 1
                return _original(self, *args, **kw)

            monkeypatch.setattr(StepContext, name, counted)
        convolve = mks.stepping.convolve_history

        def convolve_counted(*args):
            counts["memory"] += 1
            return convolve(*args)

        monkeypatch.setattr(mks.stepping, "convolve_history", convolve_counted)
        b = SeparableSource(shape=banded_field(grid4, seed=31, scale=0.1),
                            profile=TimeProfile("cos", 1.0))
        J = SeparableSource(shape=banded_field(grid4, seed=32, scale=0.1))
        spec = make_noise_spec(grid4, [cos_multiplier(grid4)], [b], J,
                               banded_field(grid4, seed=33))
        bundle = sample_brownian(1, 0.25, self.STEPS, seed=34)
        kernel = exponential_kernel(0.5, 1.0)
        cfg = make_cfg(0.25 / self.STEPS, level=1, equation=equation,
                       kerr=KerrExponent(2.0, True))
        run_path(spec, cfg, kernel, bundle)
        return counts

    @pytest.mark.parametrize("equation", [TSEE, MSEE])
    def test_euler_maruyama(self, grid4, monkeypatch, equation):
        counts = self._counted_run(grid4, monkeypatch, em_cfg, equation)
        assert counts == {"drift": self.STEPS + 1, "noise": self.STEPS,
                          "memory": self.STEPS + 1}

    @pytest.mark.parametrize("equation", [TSEE, MSEE])
    def test_lie_splitting(self, grid4, monkeypatch, equation):
        counts = self._counted_run(grid4, monkeypatch, lie_cfg, equation)
        assert counts == {"drift": self.STEPS + 1, "noise": 2 * self.STEPS,
                          "memory": self.STEPS + 1}

    @pytest.mark.parametrize("make_cfg", [em_cfg, lie_cfg])
    def test_one_phase_and_one_norm_of_each_kind_per_step(
            self, grid4, monkeypatch, make_cfg):
        # gauged tsee with Kerr and one channel, recording u: the phase and
        # the view's pointwise norm are formed once per time level; the L2
        # norms per step are those of Lambda, Z and the new state
        b = SeparableSource(shape=banded_field(grid4, seed=35, scale=0.1),
                            profile=TimeProfile("cos", 1.0))
        J = SeparableSource(shape=banded_field(grid4, seed=36, scale=0.1))
        spec = make_noise_spec(grid4, [cos_multiplier(grid4)], [b], J,
                               banded_field(grid4, seed=37))
        bundle = sample_brownian(1, 0.25, self.STEPS, seed=38)
        cfg = make_cfg(0.25 / self.STEPS, level=1, kerr=KerrExponent(2.0, True))
        start_of(spec, cfg)  # the cached start state checks u0's norms
        counts = {"gauge_phase": 0, "pointwise_norm": 0, "l2_norm": 0}

        def counted(name, original):
            def call(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return call

        monkeypatch.setattr(mks.stepping, "gauge_phase",
                            counted("gauge_phase", mks.stepping.gauge_phase))
        pointwise = counted("pointwise_norm", mks.grid.pointwise_norm)
        for module in (mks.stepping, mks.grid, mks.kerr):
            monkeypatch.setattr(module, "pointwise_norm", pointwise)
        monkeypatch.setattr(mks.stepping, "l2_norm",
                            counted("l2_norm", mks.stepping.l2_norm))
        run_path(spec, cfg, None, bundle,
                 sink=recording(spec, [bundle], inverse=True))
        # the Lie resolvent takes the pointwise norm of its own argument
        resolvent = self.STEPS if cfg.scheme == LIE_SPLITTING else 0
        assert counts == {"gauge_phase": self.STEPS + 1,
                          "pointwise_norm": self.STEPS + 1 + resolvent,
                          "l2_norm": 3 * self.STEPS + 2}


class TestTransformCounts:
    """FFTs per step, counted at the to_spectral/to_physical bindings of
    mks.stepping: y stays spectral, and the physical view is formed once."""

    STEPS = 8

    def _per_step(self, monkeypatch, spec, cfg, kernel=None):
        calls = {"n": 0}
        for name in ("to_spectral", "to_physical"):
            original = getattr(mks.stepping, name)

            def counted(f, _original=original):
                calls["n"] += 1
                return _original(f)

            monkeypatch.setattr(mks.stepping, name, counted)
        totals = []
        for steps in (self.STEPS, 2 * self.STEPS):
            bundle = sample_brownian(spec.count, steps * cfg.dt, steps,
                                     seed=41)
            calls["n"] = 0
            run_path(spec, cfg, kernel, bundle)
            totals.append(calls["n"])
        # the per-path set-up cancels in the difference
        return (totals[1] - totals[0]) / self.STEPS

    def test_linear_trivial_gauge_euler(self, grid8, monkeypatch):
        n = grid8.points_per_axis
        b = [SeparableSource(shape=banded_field(grid8, seed=42 + i, scale=0.1),
                             profile=TimeProfile("cos", 1.0)) for i in range(2)]
        J = SeparableSource(shape=banded_field(grid8, seed=44, scale=0.2))
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))] * 2, b, J,
                               banded_field(grid8, seed=45))
        assert self._per_step(monkeypatch, spec, em_cfg(1 / 64)) <= 1

    @pytest.mark.parametrize("kernel", [None, exponential_kernel(0.5, 1.0)],
                             ids=["no-kernel", "kernel"])
    def test_gauged_tsee_kerr_euler(self, grid8, monkeypatch, kernel):
        b = SeparableSource(shape=constant_amplitude(grid8, 0.1),
                            profile=TimeProfile("cos", 1.0))
        J = SeparableSource(shape=banded_field(grid8, seed=46, scale=0.2))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b], J,
                               banded_field(grid8, seed=47))
        cfg = em_cfg(1 / 64, kerr=KerrExponent(2.0, True))
        assert self._per_step(monkeypatch, spec, cfg, kernel) <= 3

    def test_msee_lie_kerr_memory(self, grid8, monkeypatch):
        b = SeparableSource(shape=constant_amplitude(grid8, 0.05),
                            profile=TimeProfile("sin", 2.0))
        J = SeparableSource(shape=banded_field(grid8, seed=48, scale=0.1))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8, 0.2)], [b], J,
                               banded_field(grid8, seed=49))
        cfg = lie_cfg(1 / 128, equation=MSEE, kerr=KerrExponent(3.0))
        per_step = self._per_step(monkeypatch, spec, cfg,
                                  exponential_kernel(0.5, 1.0))
        assert per_step <= 7


class TestRunPath:
    def test_tsee_equals_msee_for_invariant_amplitude(self, grid8):
        # B = 0 and a noise amplitude fixed by both filters: the runs coincide
        # bit for bit (constant fields are exact fixed points of the fft masks)
        n = grid8.points_per_axis
        b = SeparableSource(shape=constant_amplitude(grid8, 0.2),
                            profile=TimeProfile("cos", 1.0))
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))], [b],
                               zero_source(grid8),
                               banded_field(grid8, seed=15))
        bundle = sample_brownian(1, 1.0, 32, seed=11)
        kerr = KerrExponent(2.0, True)
        _, rt = recorded_path(spec, em_cfg(1 / 32, kerr=kerr), None, bundle)
        _, rm = recorded_path(spec, em_cfg(1 / 32, equation=MSEE, kerr=kerr),
                              None, bundle)
        assert np.array_equal(rt.data, rm.data)

    def test_band_limitation_exact(self, grid8):
        # level 1 leaves a nonempty out-of-band region on the 8^3 grid
        b = SeparableSource(shape=banded_field(grid8, seed=16, scale=0.2,
                                               level=0))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b],
                               zero_source(grid8),
                               random_field(grid8, seed=17))
        bundle = sample_brownian(1, 0.5, 16, seed=12)
        cfg = em_cfg(1 / 32, level=1, kerr=KerrExponent(2.0, True))
        report, traj = recorded_path(spec, cfg, None, bundle)
        outside = ~sharp_mask(grid8, cfg.cutoff_level)
        assert outside.sum() > 0
        # every update is filtered, so out-of-band content sits at transform
        # rounding level and does not accumulate over the run
        leaks = []
        for k in range(len(traj.times)):
            hat = to_spectral(Field6(grid8, PHYSICAL, traj.data[k]))
            leaks.append(np.max(np.abs(hat.data[:, outside])))
        scale = np.max(report.l2)
        assert max(leaks) <= 1e-13 * max(scale, 1.0)
        assert leaks[-1] <= 10 * max(leaks[1], 1e-17)  # no growth in time

    def test_blow_up_detected(self, grid8, monkeypatch):
        J = SeparableSource(shape=constant_amplitude(grid8, 1e6))
        spec = make_noise_spec(grid8, [], [], J, zero_field(grid8))
        bundle = sample_brownian(0, 1.0, 4, seed=13)
        monkeypatch.setattr(mks.stepping, "BLOWUP_THRESHOLD", 1e3)
        with pytest.raises(BlowUpError) as info:
            run_path(spec, em_cfg(0.25), None, bundle)
        assert info.value.norm > 1e3

    def test_start_state_over_the_threshold_blows_up_at_t1(self, grid8):
        # blow-ups are checked on stepped states: a start state over the
        # threshold is stepped once and leaves the batch at t_1
        spec = free_spec(grid8, zero_field(grid8))
        bundles = [sample_brownian(0, 1.0, 16, seed=s) for s in (1, 2, 3)]
        start = to_spectral(random_field(grid8, seed=4, scale=1e9))
        assert l2_norm(start) > mks.stepping.BLOWUP_THRESHOLD
        results = run_paths(spec, em_cfg(1 / 16), None, bundles,
                            initial=start)
        assert all(isinstance(r, BlowUpError) for r in results)
        assert [r.time for r in results] == [bundles[0].times[1]] * 3 \
            == [0.0625] * 3

    def test_beta_truncation_freezes_and_logs(self, grid8):
        b = SeparableSource(shape=constant_amplitude(grid8, 0.1))
        n = grid8.points_per_axis
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))], [b],
                               zero_source(grid8), zero_field(grid8))
        bundle = sample_brownian(1, 1.0, 64, seed=14)
        tiny = 0.3 * np.max(np.abs(bundle.values))
        cfg = em_cfg(1 / 64, beta_truncation_m=tiny)
        report = run_path(spec, cfg, None, bundle)
        kinds = [e["kind"] for e in report.events]
        assert "beta_truncation" in kinds
        # after the exit the state stops moving (frozen increments, zero drift)
        k_exit = np.argmax(np.any(np.abs(bundle.values) > tiny, axis=0))
        assert np.allclose(report.l2[k_exit:], report.l2[k_exit])

    def test_bundle_spacing_must_match(self, grid8):
        spec = free_spec(grid8, banded_field(grid8, seed=18))
        bundle = sample_brownian(0, 1.0, 16, seed=15)
        with pytest.raises(UsageError):
            run_path(spec, em_cfg(1 / 32), None, bundle)

    def test_transformed_trajectory_norm_matches(self, grid8):
        # |u| = |y| pointwise, so the L2 series of both trajectories agree
        b = SeparableSource(shape=banded_field(grid8, seed=19, scale=0.1))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b],
                               zero_source(grid8), banded_field(grid8, seed=20))
        bundle = sample_brownian(1, 0.5, 16, seed=16)
        cfg = em_cfg(1 / 32, kerr=KerrExponent(2.0, True))
        y, u = (recording(spec, [bundle], inverse)
                for inverse in (False, True))
        run_path(spec, cfg, None, bundle, sink=fan_out(y, u))
        for k in range(len(y.times)):
            assert np.isclose(
                np.linalg.norm(y.trajectory(0).data[k]),
                np.linalg.norm(u.trajectory(0).data[k]), rtol=1e-12)


class TestSinkGauge:
    """The sink receives the phase the step formed, or None where the run
    forms none; a Recording of u applies that very phase."""

    def _spec(self, grid8, multiplier):
        b = SeparableSource(shape=banded_field(grid8, seed=19, scale=0.1))
        return make_noise_spec(grid8, [multiplier], [b], zero_source(grid8),
                               banded_field(grid8, seed=20))

    @pytest.mark.parametrize("equation, b_nonzero", [(MSEE, True),
                                                     (TSEE, False)])
    def test_no_phase_is_none(self, grid8, equation, b_nonzero):
        # msee forms no phase even with B != 0; tsee none when B = 0
        n = grid8.points_per_axis
        multiplier = (cos_multiplier(grid8) if b_nonzero
                      else np.zeros((n, n, n)))
        spec = self._spec(grid8, multiplier)
        bundle = sample_brownian(1, 0.5, 16, seed=16)
        cfg = em_cfg(1 / 32, equation=equation, kerr=KerrExponent(2.0, True))
        gauges = []
        y, u = (recording(spec, [bundle], inverse)
                for inverse in (False, True))
        run_path(spec, cfg, None, bundle, sink=fan_out(
            y, u, lambda level, paths, view, gauge: gauges.append(gauge)))
        assert gauges == [None] * (bundle.steps + 1)
        assert y.data.tobytes() == u.data.tobytes()  # u = y

    @pytest.mark.parametrize("make_cfg", [em_cfg, lie_cfg])
    def test_gauged_tsee_hands_the_steps_phase(self, grid8, monkeypatch,
                                               make_cfg):
        spec = self._spec(grid8, cos_multiplier(grid8))
        bundle = sample_brownian(1, 0.5, 16, seed=16)
        cfg = make_cfg(1 / 32, kerr=KerrExponent(2.0, True))
        formed = []
        original = mks.stepping.gauge_phase

        def forming(spec, bundle, k):
            formed.append((k, original(spec, bundle, k)))
            return formed[-1][1]

        monkeypatch.setattr(mks.stepping, "gauge_phase", forming)
        seen = []
        u = recording(spec, [bundle], inverse=True)

        def sink(level, paths, view, gauge):
            seen.append((level, gauge,
                         apply_gauge(view, gauge, "inverse").data.copy()))
            u(level, paths, view, gauge)

        run_path(spec, cfg, None, bundle, sink=sink)
        assert [k for k, _ in formed] == list(range(bundle.steps + 1))
        assert len(seen) == bundle.steps + 1
        for (level, gauge, expected), (k, phase) in zip(seen, formed):
            assert level == k and gauge is phase
            assert u.data[0, level].tobytes() == expected[0].tobytes()


class TestGalerkinState:
    """The state holds the coefficients inside the cube P_n only."""

    def _oversampled(self, grid16):
        n = grid16.points_per_axis
        b = [SeparableSource(shape=banded_field(grid16, seed=50 + i, scale=0.1),
                             profile=TimeProfile("cos", 1.0)) for i in range(2)]
        J = SeparableSource(shape=banded_field(grid16, seed=52, scale=0.2))
        spec = make_noise_spec(grid16, [np.zeros((n, n, n))] * 2, b, J,
                               banded_field(grid16, seed=53))
        # modes in every corner of the 16^3 grid, far outside |k_i| <= 4
        start = to_spectral(random_field(grid16, seed=54, scale=0.3))
        return spec, start, sample_brownian(2, 8 / 64, 8, seed=55)

    def test_start_state_is_projected(self, grid16):
        spec, start, bundle = self._oversampled(grid16)
        cfg = em_cfg(1 / 64, level=2, kerr=KerrExponent(2.0, True))
        level = cfg.cutoff_level
        assert not sharp_mask(grid16, level).all()
        report, traj = recorded_path(spec, cfg, None, bundle, initial=start)
        _, ref = recorded_path(spec, cfg, None, bundle,
                               initial=sharp_cutoff(start, level))
        assert np.array_equal(traj.data, ref.data)
        assert np.isclose(report.l2[0],
                          l2_norm(sharp_cutoff(start, level)), rtol=1e-14)
        outside = ~sharp_mask(grid16, level)
        for k in range(len(traj.times)):
            hat = to_spectral(Field6(grid16, PHYSICAL,
                                     traj.data[k])).data
            assert np.max(np.abs(hat[:, outside])) <= 1e-14

    def test_matches_full_grid_euler_maruyama(self, grid16):
        # the packed run against Euler-Maruyama written out on the full grid
        # with mask multiplies: y + dt P_n[m y - F(y) + J] + sum Z_i dbeta_i
        from mks.kerr import kerr_force
        from mks.operators import maxwell_apply

        spec, start, bundle = self._oversampled(grid16)
        cfg = em_cfg(1 / 64, level=2, kerr=KerrExponent(2.0, True))
        level, below = cfg.cutoff_level, CutoffLevel(1)
        _, traj = recorded_path(spec, cfg, None, bundle, initial=start)
        j_hat = to_spectral(spec.current.shape).data
        shapes = [smooth_cutoff(to_spectral(b.shape), below).data
                  for b in spec.b_sources]
        y = sharp_cutoff(start, level)
        for k in range(bundle.steps):
            t = float(bundle.times[k])
            force = to_spectral(kerr_force(to_physical(y), cfg.kerr)).data
            lam = sharp_cutoff(y.with_data(
                maxwell_apply(y).data + j_hat - force), level)
            incr = cfg.dt * lam.data
            for b, shape, db in zip(spec.b_sources, shapes,
                                    bundle.values[:, k + 1] - bundle.values[:, k]):
                incr = incr + db * b.profile.value(t) * shape
            y = y.with_data(y.data + incr)
        final = to_physical(y).data
        assert np.max(np.abs(traj.data[-1] - final)) \
            <= 1e-13 * np.max(np.abs(final))

    def test_path_independent_pieces_are_built_once(self, grid16, monkeypatch):
        spec, _, bundle = self._oversampled(grid16)
        cfg = em_cfg(1 / 64, level=2)
        calls = {"n": 0}
        original = mks.stepping.to_spectral
        packed = GalerkinSpace.spectral

        def counted(f):
            calls["n"] += 1
            return original(f)

        def packed_counted(space, f):
            calls["n"] += 1
            return packed(space, f)

        monkeypatch.setattr(mks.stepping, "to_spectral", counted)
        monkeypatch.setattr(GalerkinSpace, "spectral", packed_counted)
        first = run_path(spec, cfg, None, bundle)
        per_run = calls["n"]
        second = run_path(spec, cfg, None, bundle)
        # u0 twice (||m u0|| on the full grid, the packed start state), J
        # and both noise shapes
        assert per_run == 5
        assert calls["n"] == per_run  # the linear step itself has none
        assert np.array_equal(first.l2, second.l2)
        assert start_of(spec, cfg) is start_of(spec, cfg)


class TestBatchEquivalence:
    """One batch of paths equals each path run alone, bitwise: every report
    array, event and recorded trajectory.  A path that blows up leaves the
    batch and a truncated path freezes its own bundle; neither disturbs the
    others."""

    STEPS = 8
    JUMP = 5          # the blow-up path's first channel jumps into step 5
    CROSSING = 3      # the truncated path's second channel leaves m at step 3
    TRUNCATION = 1.0  # beta truncation level m
    THRESHOLD = 300.0

    def _bundles(self):
        """Two channels; every |beta| stays under 0.1 except: path 1's second
        channel leaves m mid-run, and path 2's first channel jumps by 0.85
        (staying under m), which its strong first amplitude turns into a
        norm over the blow-up threshold."""
        steps = self.STEPS
        horizon = steps / 64
        out = []
        for p in range(4):
            raw = sample_brownian(2, horizon, steps, seed=60 + p).values
            values = raw * (0.1 / np.max(np.abs(raw), axis=1, keepdims=True))
            if p == 1:
                values[1, self.CROSSING:] += 1.2
            if p == 2:
                values[0, self.JUMP:] += 0.85
            out.append(BrownianBundle(times=np.linspace(0.0, horizon,
                                                        steps + 1),
                                      values=values, seed=60 + p))
        return out

    @pytest.fixture(autouse=True)
    def _threshold(self, monkeypatch):
        monkeypatch.setattr(mks.stepping, "BLOWUP_THRESHOLD", self.THRESHOLD)

    def _case(self, grid8, name):
        n = grid8.points_per_axis
        strong = SeparableSource(shape=constant_amplitude(grid8, 20.0),
                                 profile=TimeProfile("cos", 1.0))
        weak = SeparableSource(shape=banded_field(grid8, seed=72, scale=0.01))
        J = SeparableSource(shape=banded_field(grid8, seed=70, scale=0.1))
        u0 = banded_field(grid8, seed=71, scale=0.05, level=2)
        spec = make_noise_spec(grid8, [cos_multiplier(grid8, 0.2),
                                       np.zeros((n, n, n))],
                               [strong, weak], J, u0)
        kerr = KerrExponent(2.0, True)
        kw = dict(beta_truncation_m=self.TRUNCATION)
        if name == "tsee_euler":
            return spec, em_cfg(1 / 64, kerr=kerr, **kw), None
        kernel = exponential_kernel(0.5, 1.0)
        if name == "tsee_lie_memory":
            return spec, lie_cfg(1 / 64, kerr=kerr, **kw), kernel
        if name == "msee_lie_memory":
            return spec, lie_cfg(1 / 64, equation=MSEE,
                                 kerr=KerrExponent(3.0), **kw), kernel
        return spec, em_cfg(1 / 64, equation=WSEE, kerr=kerr, **kw), kernel

    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    @staticmethod
    def _recorded(spec, cfg, kernel, bundles, name, path_indices=None,
                  also=None):
        """run_paths into a Recording of y, and of u too for tsee, plus the
        sink ``also``: per path its BlowUpError, or (report, trajectories).
        The recordings' rows are the bundles' positions."""
        labels = list(range(len(bundles)) if path_indices is None
                      else path_indices)
        records = [recording(spec, bundles, inverse) for inverse in
                   ((False, True) if name.startswith("tsee") else (False,))]

        def sink(k, paths, view, gauge):
            if also is not None:
                also(k, paths, view, gauge)
            rows = [labels.index(p) for p in paths]
            for record in records:
                record(k, rows, view, gauge)

        out = run_paths(spec, cfg, kernel, bundles, path_indices=labels,
                        sink=sink)
        return [res if isinstance(res, BlowUpError)
                else (res, [record.trajectory(row) for record in records])
                for row, res in enumerate(out)]

    def _assert_same_path(self, batched, alone):
        (ra, trajectories_a), (rb, trajectories_b) = batched, alone
        assert (ra.path_index, ra.events) == (rb.path_index, rb.events)
        for key in ("times", "l2", "power_norm", "lambda_l2", "energy_residual"):
            assert self._same_bits(getattr(ra, key), getattr(rb, key)), key
        assert len(trajectories_a) == len(trajectories_b)
        for ta, tb in zip(trajectories_a, trajectories_b):
            assert self._same_bits(ta.times, tb.times)
            assert self._same_bits(ta.data, tb.data)

    @pytest.mark.parametrize("name", ["tsee_euler", "msee_lie_memory", "wsee"])
    def test_a_path_reduces_like_an_unstacked_field(self, grid8, name):
        # the first norms of a run equal those of the same fields without a
        # path axis, evaluated by hand
        spec, cfg, kernel = self._case(grid8, name)
        bundle = self._bundles()[0]
        report = run_path(spec, cfg, kernel, bundle)
        y0 = start_of(spec, cfg)
        history = None
        if kernel is not None:
            history = History(kernel, cfg.dt)
            history.append(y0)
        lam, _ = drift_and_noise(StepContext(cfg, spec), bundle, y0, 0,
                                 history)
        view = to_physical(y0)
        assert report.l2[0] == l2_norm(y0)
        assert report.lambda_l2[0] == l2_norm(lam)
        assert report.power_norm[0] == lp_norm(view, cfg.power) ** cfg.power

    @pytest.mark.parametrize("name", ["tsee_euler", "tsee_lie_memory",
                                      "msee_lie_memory", "wsee"])
    def test_batch_equals_paths_alone(self, grid8, name):
        spec, cfg, kernel = self._case(grid8, name)
        bundles = self._bundles()
        singles = {p: self._recorded(spec, cfg, kernel, [bundles[p]], name,
                                     path_indices=[p])[0] for p in (0, 1, 3)}
        with pytest.raises(BlowUpError) as blown:
            run_path(spec, cfg, kernel, bundles[2], path_indices=[2],
                     sink=recording(spec, bundles))
        assert blown.value.time == bundles[2].times[self.JUMP]
        assert singles[1][0].events == [{
            "kind": "beta_truncation",
            "time": bundles[1].times[self.CROSSING], "level": self.TRUNCATION}]
        assert not singles[0][0].events and not singles[3][0].events

        for order in ([0, 1, 2, 3], [3, 2, 1], [1, 0]):
            batch = self._recorded(spec, cfg, kernel,
                                   [bundles[p] for p in order], name,
                                   path_indices=order)
            for p, out in zip(order, batch):
                if p == 2:
                    assert isinstance(out, BlowUpError)
                    assert (out.time, out.norm, str(out)) == \
                        (blown.value.time, blown.value.norm, str(blown.value))
                else:
                    self._assert_same_path(out, singles[p])

    @pytest.mark.parametrize("name", ["tsee_euler", "msee_lie_memory"])
    def test_sink_sees_every_step_of_the_paths_still_stepping(self, grid8,
                                                              name):
        # the sink is called at k = 0..K with the labels of the rows still
        # stepping; path 2 blows up at step 5, so it leaves them from k = 5.
        # A Recording keeps row p of the view at index k
        spec, cfg, kernel = self._case(grid8, name)
        sunk = []
        batch = self._recorded(
            spec, cfg, kernel, self._bundles(), name,
            path_indices=[10, 11, 12, 13],
            also=lambda k, paths, view, gauge: sunk.append(
                (k, paths, view.data.copy())))
        assert isinstance(batch[2], BlowUpError)
        assert [(k, paths) for k, paths, _ in sunk] == \
            [(k, [10, 11, 12, 13]) for k in range(self.JUMP)] + \
            [(k, [10, 11, 13]) for k in range(self.JUMP, self.STEPS + 1)]
        for k, paths, data in sunk:
            for label, row in zip(paths, data):
                if label != 12:
                    assert self._same_bits(
                        row, batch[label - 10][1][0].data[k])

    def test_records_are_rows_of_one_array(self, grid8):
        spec, cfg, kernel = self._case(grid8, "tsee_euler")
        bundles = self._bundles()
        records = [recording(spec, bundles, inverse)
                   for inverse in (False, True)]
        batch = run_paths(spec, cfg, kernel, bundles, sink=fan_out(*records))
        kept = [p for p, out in enumerate(batch)
                if not isinstance(out, BlowUpError)]
        assert kept == [0, 1, 3]
        for record in records:
            rows = [record.trajectory(p).data for p in kept]
            base = rows[0].base
            assert base is record.data
            assert base.shape == (4, self.STEPS + 1) + rows[0].shape[1:]
            for p, row in zip(kept, rows):
                assert row.base is base
                assert row.ctypes.data == base[p].ctypes.data


class TestMemoryCoupling:
    def _setup(self, grid4, b_field=None):
        n = grid4.points_per_axis
        b = SeparableSource(shape=constant_amplitude(grid4, 0.1))
        if b_field is None:
            b_field = 0.2 * np.ones((n, n, n))
        spec = make_noise_spec(grid4, [b_field], [b], zero_source(grid4),
                               random_field(grid4, seed=21, scale=0.5))
        bundle = sample_brownian(1, 0.5, 32, seed=17)
        kernel = exponential_kernel(2.0, 1.0)
        cfg = em_cfg(0.5 / 32, level=1, equation=MSEE,
                     kerr=KerrExponent(2.0, True))
        return spec, bundle, kernel, cfg

    def test_direct_memory_run_refuses_a_late_start(self, grid4):
        # the history of a direct run starts with the run, so its bundle
        # must start at t = 0
        spec, bundle, kernel, cfg = self._setup(grid4)
        late = BrownianBundle(times=bundle.times[4:],
                              values=bundle.values[:, 4:], seed=bundle.seed)
        with pytest.raises(UsageError, match="must start at t = 0"):
            run_path(spec, cfg, kernel, late)

    @pytest.mark.parametrize("equation", [TSEE, MSEE])
    def test_truncated_bundle_runs_as_its_frozen_bundle(self, grid4,
                                                        equation):
        # the windows step on the frozen bundle, and the gauged memory source
        # and the u <-> y phases at the window ends read the same beta
        spec, bundle, kernel, cfg = self._setup(grid4)
        m = 0.3
        cfg = replace(cfg, equation=equation, beta_truncation_m=m)
        frozen, k_exit = freeze_bundle_at_exit(bundle, m)
        assert 0 < k_exit < bundle.steps // 2
        a, diag_a = solve_with_memory(spec, cfg, kernel, bundle)
        b, diag_b = solve_with_memory(spec, cfg, kernel, frozen)
        assert len(diag_a["windows"]) >= 2
        assert a.data.tobytes() == b.data.tobytes()
        assert diag_a["windows"] == diag_b["windows"]
        # the exit is reported once, not again at each later window's start
        assert diag_a["events"] == diag_b["events"] == [{
            "kind": "beta_truncation", "time": bundle.times[k_exit],
            "level": m}]

    @pytest.mark.parametrize("make_cfg", [em_cfg, lie_cfg])
    @pytest.mark.parametrize("equation,b_field", [
        (MSEE, "constant"), (TSEE, "constant"), (TSEE, "plane-wave")])
    def test_picard_matches_direct_history_run(self, grid4, make_cfg,
                                               equation, b_field):
        # the direct run carries G * u for every equation; under gauged tsee
        # it folds u and gauges the term, as the Picard windows do
        b_field = (cos_multiplier(grid4, 0.2) if b_field == "plane-wave"
                   else None)
        spec, bundle, kernel, cfg = self._setup(grid4, b_field)
        cfg = make_cfg(cfg.dt, level=1, equation=equation, kerr=cfg.kerr)
        record = recording(spec, [bundle], inverse=True)
        run_path(spec, cfg, kernel, bundle, sink=record)
        direct = record.trajectory(0)
        fixed, diag = solve_with_memory(spec, cfg, kernel, bundle)
        assert trajectory_sup_distance(fixed, direct) < 1e-10
        assert len(diag["windows"]) >= 2  # the kernel forces sub-windows

    def test_window_independence(self, grid4, monkeypatch):
        spec, bundle, kernel, cfg = self._setup(grid4)
        a, diag = solve_with_memory(spec, cfg, kernel, bundle)
        half = diag["window_length"] / 2
        monkeypatch.setattr(mks.stepping, "contraction_step_length",
                            lambda *args: half)
        b, diag_b = solve_with_memory(spec, cfg, kernel, bundle)
        assert diag_b["window_length"] == half
        assert trajectory_sup_distance(a, b) <= 5e-10

    def test_picard_gaps_contract(self, grid4):
        spec, bundle, kernel, cfg = self._setup(grid4)
        _, diag = solve_with_memory(spec, cfg, kernel, bundle)
        for w in diag["windows"]:
            gaps = [g for g in w["gaps"] if g > 1e-13]
            ratios = [b / a for a, b in zip(gaps, gaps[1:])]
            assert all(r <= 0.9 for r in ratios[1:])

    def test_windows_glue_bitwise(self, grid4):
        # terminal state of window 1 is the initial state of window 2
        spec, bundle, kernel, cfg = self._setup(grid4)
        fixed, diag = solve_with_memory(spec, cfg, kernel, bundle)
        w0_end = diag["windows"][0]["window"][1]
        k = grid_index(bundle, w0_end)
        assert diag["windows"][1]["window"][0] == w0_end
        assert np.all(np.isfinite(fixed.data[k]))

    def test_tsee_route_agrees_with_msee_route(self, grid4):
        # same memory law integrated through the transformed equation: both
        # converge to the same continuum object; the gap is scheme-level and
        # shrinks when the shared path is refined
        spec, bundle, kernel, cfg = self._setup(grid4)
        gaps = []
        for _ in range(2):
            msee_traj, _ = solve_with_memory(spec, cfg, kernel, bundle)
            tsee_traj, _ = solve_with_memory(spec, replace(cfg, equation=TSEE),
                                             kernel, bundle)
            gaps.append(trajectory_sup_distance(tsee_traj, msee_traj))
            bundle = refine_bundle(bundle)
            cfg = replace(cfg, dt=cfg.dt / 2)
        assert gaps[1] < gaps[0]
        assert gaps[0] < 5.0 * np.sqrt(2 * gaps[1] ** 2)  # roughly sqrt(dt) decay

    def test_iterates_hold_their_window_only(self, grid4, monkeypatch):
        # every iterate handed to the step, and every one it returns, holds
        # the window's count + 1 states
        seen = []
        solve = mks.memory.picard_solve

        def recording(window, guess, step, *args, **kwargs):
            def counted(v):
                w = step(v)
                seen.append((window, v.data.shape[0], w.data.shape[0],
                             len(v), len(w)))
                return w
            return solve(window, guess, counted, *args, **kwargs)

        monkeypatch.setattr(mks.stepping, "picard_solve", recording)
        spec, bundle, kernel, cfg = self._setup(grid4)
        _, diag = solve_with_memory(spec, cfg, kernel, bundle)
        assert len(seen) == sum(w["iterations"] for w in diag["windows"])
        for window, *sizes in seen:
            count = (grid_index(bundle, window[1])
                     - grid_index(bundle, window[0]))
            assert sizes == [count + 1] * 4

    def test_iterates_append_only_their_window(self, grid4, monkeypatch):
        # the states before a window are folded once into a prefix; each
        # Picard iterate continues from a copy and appends its window only
        made = []

        class RecordingHistory(History):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.appended = []
                made.append(self)

            def append(self, state):
                self.appended.append(len(self))
                super().append(state)

        monkeypatch.setattr(mks.stepping, "History", RecordingHistory)
        spec, bundle, kernel, cfg = self._setup(grid4)
        _, diag = solve_with_memory(spec, cfg, kernel, bundle)
        prefix, *iterates = made
        assert len(iterates) == sum(w["iterations"] for w in diag["windows"])
        last_start = diag["windows"][-1]["window"][0]
        assert prefix.appended == list(range(grid_index(bundle, last_start)))
        first = 0
        for w in diag["windows"]:
            t_a, t_b = w["window"]
            window = list(range(grid_index(bundle, t_a),
                                grid_index(bundle, t_b) + 1))
            for h in iterates[first:first + w["iterations"]]:
                assert h.appended == window
            first += w["iterations"]
