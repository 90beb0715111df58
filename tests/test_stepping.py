import numpy as np
import pytest
import scipy.linalg

import mks.stepping
from mks.errors import BlowUpError, ConfigurationError, UsageError
from mks.grid import Field6, l2_norm, random_field, to_physical, to_spectral, zero_field
from mks.kerr import KerrExponent
from mks.memory import History, exponential_kernel
from mks.multipliers import CutoffLevel, sharp_cutoff, sharp_mask, smooth_cutoff
from mks.noise import (
    SeparableSource,
    TimeProfile,
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
    initial_state,
    run_path,
    solve_with_memory,
    step_euler_maruyama,
    trajectory_sup_distance,
    _noise_increment,
)

from conftest import (
    banded_field,
    coords,
    drift_A_apply,
    plane_wave,
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
        st = initial_state(spec, em_cfg(0.1, level=2))
        assert np.max(np.abs(to_physical(st.y).data - u0.data)) < 1e-13

    def test_high_mode_removed(self, grid8):
        u0 = plane_wave(grid8, (3, 0, 0))  # 1 + 9 = 10 > 2^{n+1} for n-1 = 1
        spec = free_spec(grid8, u0)
        st = initial_state(spec, em_cfg(0.1, level=2))
        assert l2_norm(st.y) < 1e-13 * l2_norm(u0)

    def test_norm_never_grows(self, grid8):
        u0 = random_field(grid8, seed=1)
        spec = free_spec(grid8, u0)
        st = initial_state(spec, em_cfg(0.1, level=2))
        assert l2_norm(st.y) <= l2_norm(u0)

    def test_wsee_uses_sharp_projection(self, grid8):
        u0 = random_field(grid8, seed=2)
        spec = free_spec(grid8, u0)
        st = initial_state(spec, em_cfg(0.1, level=2, equation=WSEE))
        expected = sharp_cutoff(to_spectral(u0), CutoffLevel(2))
        assert np.array_equal(st.y.data, expected.data)

    def test_cutoff_above_nyquist_rejected(self, grid8):
        spec = free_spec(grid8, random_field(grid8, seed=3))
        with pytest.raises(ConfigurationError):
            initial_state(spec, em_cfg(0.1, level=3))  # 2^3 = 8 > Nyquist 4


class TestEulerStep:
    def test_zero_stays_zero(self, grid8):
        spec = free_spec(grid8, zero_field(grid8))
        bundle = sample_brownian(0, 1.0, 16, seed=1)
        res = run_path(spec, em_cfg(1 / 16), None, bundle)
        assert np.max(res.report.l2) == 0.0

    def test_one_step_forcing_only(self, grid8):
        # from zero state: y_1 = dt P_n Jtilde(0) + sum S_{n-1} btilde_i(0) dbeta_i
        b = SeparableSource(shape=banded_field(grid8, seed=4, scale=0.2))
        J = SeparableSource(shape=banded_field(grid8, seed=5, scale=0.3))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b], J,
                               zero_field(grid8))
        bundle = sample_brownian(1, 1.0, 16, seed=2)
        cfg = em_cfg(1 / 16)
        jt = transformed_current(0.0, spec, bundle)
        proj = to_physical(sharp_cutoff(to_spectral(jt), cfg.cutoff_level))
        bt = transformed_noise(0, 0.0, spec, bundle)
        filt = to_physical(smooth_cutoff(to_spectral(bt), CutoffLevel(1)))
        dbeta = bundle.values[0, 1] - bundle.values[0, 0]
        expected = cfg.dt * proj.data + dbeta * filt.data

        st = initial_state(spec, cfg)
        ctx = StepContext(cfg, spec, bundle)
        new = step_euler_maruyama(st, ctx, ctx.drift(st.y, st.t),
                                  ctx.noise(st.y, st.t), None)
        assert np.max(np.abs(to_physical(new.y).data - expected)) < 1e-14

    def test_step_recomposition_is_bitwise(self, grid8):
        # one Euler step equals y + dt Lambda + noise increment, recomputed
        b = SeparableSource(shape=banded_field(grid8, seed=6, scale=0.2),
                            profile=TimeProfile("cos", 1.0))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b],
                               zero_source(grid8), banded_field(grid8, seed=7))
        bundle = sample_brownian(1, 1.0, 16, seed=3)
        cfg = em_cfg(1 / 16, kerr=KerrExponent(2.0, True))
        st = initial_state(spec, cfg)
        for _ in range(3):
            lam = StepContext(cfg, spec, bundle).drift(st.y, st.t)
            zs = StepContext(cfg, spec, bundle).noise(st.y, st.t)
            k = st.step_index
            dbeta = bundle.values[:, k + 1] - bundle.values[:, k]
            incr = cfg.dt * lam.data + _noise_increment(zs, dbeta,
                                                        st.y.data.shape)
            expected = st.y.data + incr
            ctx = StepContext(cfg, spec, bundle)
            st = step_euler_maruyama(st, ctx, ctx.drift(st.y, st.t),
                                     ctx.noise(st.y, st.t), None)
            assert np.array_equal(st.y.data, expected)

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
            res = run_path(spec, em_cfg(dt, level=1), None, bundle,
                           record_fields=True, initial=y0_hat)
            errs.append(np.linalg.norm(res.trajectory.data[-1].ravel() - ref))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 0.9 <= slope <= 1.1


class TestLieSplitting:
    def test_free_flow_is_exact_group(self, grid8):
        u0 = banded_field(grid8, seed=9)
        spec = free_spec(grid8, u0)
        dt = 0.25  # large step: still exact
        bundle = sample_brownian(0, 1.0, 4, seed=5)
        res = run_path(spec, lie_cfg(dt), None, bundle, record_fields=True)
        from mks.operators import maxwell_group

        y0 = initial_state(spec, lie_cfg(dt)).y
        exact = to_physical(maxwell_group(1.0, y0))
        gap = np.max(np.abs(res.trajectory.data[-1] - exact.data))
        assert gap < 1e-12 * np.max(np.abs(exact.data))

    def test_free_flow_conserves_norm(self, grid8):
        u0 = banded_field(grid8, seed=10)
        u0 = u0.with_data(u0.data / l2_norm(u0))
        spec = free_spec(grid8, u0)
        bundle = sample_brownian(0, 1.0, 64, seed=6)
        res = run_path(spec, lie_cfg(1 / 64), None, bundle)
        assert np.max(np.abs(res.report.l2 - res.report.l2[0])) <= 1e-12
        # the energy-identity residual is exact for the isometric flow
        assert np.max(np.abs(res.report.energy_residual)) <= 1e-12

    def test_kerr_only_is_dissipative(self, grid8):
        u0 = banded_field(grid8, seed=11)
        spec = free_spec(grid8, u0)
        bundle = sample_brownian(0, 1.0, 32, seed=7)
        cfg = lie_cfg(1 / 32, kerr=KerrExponent(2.0, True))
        res = run_path(spec, cfg, None, bundle)
        assert np.all(np.diff(res.report.l2) <= 1e-13)

    def test_discrete_energy_inequality(self, grid8):
        # ||y_k||^2 + 2 sum dt ||y_{j+1}||_{q+2}^{q+2} <= ||y_0||^2 + O(dt)
        u0 = banded_field(grid8, seed=12)
        spec = free_spec(grid8, u0)
        dt = 1 / 64
        bundle = sample_brownian(0, 1.0, 64, seed=8)
        cfg = lie_cfg(dt, kerr=KerrExponent(2.0, True))
        res = run_path(spec, cfg, None, bundle)
        r = res.report
        lhs = r.l2**2 + 2 * np.concatenate(
            [[0.0], np.cumsum(dt * r.power_norm[1:])])
        assert np.all(lhs <= r.l2[0] ** 2 + 10 * dt)

    def test_strong_order_at_least_half(self, grid8):
        from mks.diagnostics import strong_convergence_order

        b = SeparableSource(shape=constant_amplitude(grid8, 0.1))
        n = grid8.points_per_axis
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))], [b],
                               zero_source(grid8),
                               banded_field(grid8, seed=13))
        cfg = lie_cfg(1.0, kerr=KerrExponent(2.0, True))
        out = strong_convergence_order(spec, cfg, None, seeds=[1, 2, 3, 4],
                                       dts=[1 / 8, 1 / 16, 1 / 32],
                                       horizon=0.5, refine_factor=16)
        assert out["slope"] >= 0.5


class TestLambdaProcess:
    def test_zero_state_zero_drift(self, grid8):
        spec = free_spec(grid8, zero_field(grid8))
        bundle = sample_brownian(0, 1.0, 16, seed=9)
        cfg = em_cfg(1 / 16, kerr=KerrExponent(2.0, True))
        st = initial_state(spec, cfg)
        assert l2_norm(StepContext(cfg, spec, bundle).drift(st.y, st.t)) == 0.0

    def test_linear_case_is_projected_maxwell(self, grid8):
        u0 = banded_field(grid8, seed=14)
        spec = free_spec(grid8, u0)
        bundle = sample_brownian(0, 1.0, 16, seed=10)
        cfg = em_cfg(1 / 16)
        st = initial_state(spec, cfg)
        lam = StepContext(cfg, spec, bundle).drift(st.y, st.t)
        from mks.operators import maxwell_apply

        expected = sharp_cutoff(maxwell_apply(st.y), cfg.cutoff_level)
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
        y_hat = initial_state(spec, cfg).y
        y = to_physical(y_hat)
        t = float(bundle.times[5])
        assert bundle.values[0, 5] != 0.0
        ctx = StepContext(cfg, spec, bundle)
        raw = (to_physical(maxwell_apply(to_spectral(y))).data
               - kerr_force(y, cfg.kerr).data
               + drift_A_apply(y, t, spec, bundle).data
               + transformed_current(t, spec, bundle).data)
        expected = to_physical(sharp_cutoff(
            to_spectral(y.with_data(raw)), cfg.cutoff_level))
        lam = to_physical(ctx.drift(y_hat, t))
        assert np.max(np.abs(lam.data - expected.data)) < 1e-12
        noise = to_physical(smooth_cutoff(
            to_spectral(transformed_noise(0, t, spec, bundle)), CutoffLevel(1)))
        (z,) = ctx.noise(y_hat, t)
        assert np.max(np.abs(to_physical(z).data - noise.data)) < 1e-13


class TestEvaluationCounts:
    """run_path evaluates Lambda and Z once per step and the steppers reuse
    them; Lie splitting re-evaluates only the noise, at the propagated state."""

    STEPS = 8

    def _counted_run(self, grid4, monkeypatch, make_cfg, equation):
        counts = {"drift": 0, "noise": 0}
        for name in counts:
            original = getattr(StepContext, name)

            def counted(self, *args, _name=name, _original=original, **kw):
                counts[_name] += 1
                return _original(self, *args, **kw)

            monkeypatch.setattr(StepContext, name, counted)
        b = SeparableSource(shape=banded_field(grid4, seed=31, scale=0.1),
                            profile=TimeProfile("cos", 1.0))
        J = SeparableSource(shape=banded_field(grid4, seed=32, scale=0.1))
        spec = make_noise_spec(grid4, [cos_multiplier(grid4)], [b], J,
                               banded_field(grid4, seed=33))
        bundle = sample_brownian(1, 0.25, self.STEPS, seed=34)
        kernel = exponential_kernel(0.5, 1.0) if equation == MSEE else None
        cfg = make_cfg(0.25 / self.STEPS, level=1, equation=equation,
                       kerr=KerrExponent(2.0, True))
        run_path(spec, cfg, kernel, bundle)
        return counts

    @pytest.mark.parametrize("equation", [TSEE, MSEE])
    def test_euler_maruyama(self, grid4, monkeypatch, equation):
        counts = self._counted_run(grid4, monkeypatch, em_cfg, equation)
        assert counts == {"drift": self.STEPS + 1, "noise": self.STEPS}

    @pytest.mark.parametrize("equation", [TSEE, MSEE])
    def test_lie_splitting(self, grid4, monkeypatch, equation):
        counts = self._counted_run(grid4, monkeypatch, lie_cfg, equation)
        assert counts == {"drift": self.STEPS + 1, "noise": 2 * self.STEPS}


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
        bundle = sample_brownian(spec.count, 2 * self.STEPS * cfg.dt,
                                 2 * self.STEPS, seed=41)
        totals = []
        for steps in (self.STEPS, 2 * self.STEPS):
            calls["n"] = 0
            run_path(spec, cfg, kernel, bundle, n_steps=steps)
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

    def test_gauged_tsee_kerr_euler(self, grid8, monkeypatch):
        b = SeparableSource(shape=constant_amplitude(grid8, 0.1),
                            profile=TimeProfile("cos", 1.0))
        J = SeparableSource(shape=banded_field(grid8, seed=46, scale=0.2))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b], J,
                               banded_field(grid8, seed=47))
        cfg = em_cfg(1 / 64, kerr=KerrExponent(2.0, True))
        assert self._per_step(monkeypatch, spec, cfg) <= 3

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
        rt = run_path(spec, em_cfg(1 / 32, kerr=kerr), None, bundle,
                      record_fields=True)
        rm = run_path(spec, em_cfg(1 / 32, equation=MSEE, kerr=kerr), None,
                      bundle, record_fields=True)
        assert np.array_equal(rt.trajectory.data, rm.trajectory.data)

    def test_band_limitation_exact(self, grid8):
        # level 1 leaves a nonempty out-of-band region on the 8^3 grid
        b = SeparableSource(shape=banded_field(grid8, seed=16, scale=0.2,
                                               level=0))
        spec = make_noise_spec(grid8, [cos_multiplier(grid8)], [b],
                               zero_source(grid8),
                               random_field(grid8, seed=17))
        bundle = sample_brownian(1, 0.5, 16, seed=12)
        cfg = em_cfg(1 / 32, level=1, kerr=KerrExponent(2.0, True))
        res = run_path(spec, cfg, None, bundle, record_fields=True)
        outside = ~sharp_mask(grid8, cfg.cutoff_level)
        assert outside.sum() > 0
        # every update is filtered, so out-of-band content sits at transform
        # rounding level and does not accumulate over the run
        leaks = []
        for k in range(len(res.trajectory.times)):
            hat = to_spectral(res.trajectory.state(k))
            leaks.append(np.max(np.abs(hat.data[:, outside])))
        scale = np.max(res.report.l2)
        assert max(leaks) <= 1e-13 * max(scale, 1.0)
        assert leaks[-1] <= 10 * max(leaks[1], 1e-17)  # no growth in time

    def test_blow_up_detected(self, grid8):
        J = SeparableSource(shape=constant_amplitude(grid8, 1e6))
        spec = make_noise_spec(grid8, [], [], J, zero_field(grid8))
        bundle = sample_brownian(0, 1.0, 4, seed=13)
        cfg = em_cfg(0.25, blowup_threshold=1e3)
        with pytest.raises(BlowUpError) as info:
            run_path(spec, cfg, None, bundle)
        assert info.value.norm > 1e3

    def test_beta_truncation_freezes_and_logs(self, grid8):
        b = SeparableSource(shape=constant_amplitude(grid8, 0.1))
        n = grid8.points_per_axis
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))], [b],
                               zero_source(grid8), zero_field(grid8))
        bundle = sample_brownian(1, 1.0, 64, seed=14)
        tiny = 0.3 * np.max(np.abs(bundle.values))
        cfg = em_cfg(1 / 64, beta_truncation_m=tiny)
        res = run_path(spec, cfg, None, bundle)
        kinds = [e["kind"] for e in res.report.events]
        assert "beta_truncation" in kinds
        # after the exit the state stops moving (frozen increments, zero drift)
        k_exit = np.argmax(np.any(np.abs(bundle.values) > tiny, axis=0))
        assert np.allclose(res.report.l2[k_exit:], res.report.l2[k_exit])

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
        res = run_path(spec, em_cfg(1 / 32, kerr=KerrExponent(2.0, True)),
                       None, bundle, record_fields=True,
                       record_transformed=True)
        for k in range(len(res.trajectory.times)):
            assert np.isclose(
                np.linalg.norm(res.trajectory.data[k]),
                np.linalg.norm(res.transformed.data[k]), rtol=1e-12)


class TestMemoryCoupling:
    def _setup(self, grid4):
        n = grid4.points_per_axis
        b = SeparableSource(shape=constant_amplitude(grid4, 0.1))
        spec = make_noise_spec(grid4, [0.2 * np.ones((n, n, n))], [b],
                               zero_source(grid4),
                               random_field(grid4, seed=21, scale=0.5))
        bundle = sample_brownian(1, 0.5, 32, seed=17)
        kernel = exponential_kernel(2.0, 1.0)
        cfg = em_cfg(0.5 / 32, level=1, equation=MSEE,
                     kerr=KerrExponent(2.0, True))
        return spec, bundle, kernel, cfg

    def test_picard_matches_direct_history_run(self, grid4):
        spec, bundle, kernel, cfg = self._setup(grid4)
        direct = run_path(spec, cfg, kernel, bundle, record_fields=True)
        fixed, diag = solve_with_memory(spec, cfg, kernel, bundle)
        assert trajectory_sup_distance(fixed, direct.trajectory) < 1e-10
        assert len(diag["windows"]) >= 2  # the kernel forces sub-windows

    def test_window_independence(self, grid4):
        spec, bundle, kernel, cfg = self._setup(grid4)
        a, diag = solve_with_memory(spec, cfg, kernel, bundle)
        b, _ = solve_with_memory(spec, cfg, kernel, bundle,
                                 window_length=diag["window_length"] / 2)
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
        k = bundle.index_of(w0_end)
        assert diag["windows"][1]["window"][0] == w0_end
        assert np.all(np.isfinite(fixed.data[k]))

    def test_tsee_route_agrees_with_msee_route(self, grid4):
        # same memory law integrated through the transformed equation: both
        # converge to the same continuum object; the gap is scheme-level and
        # shrinks when the shared path is refined
        from dataclasses import replace

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

    def test_iterates_append_only_their_window(self, grid4, monkeypatch):
        # the states before a window are folded once into a prefix; each
        # Picard iterate continues from a copy and appends its window only
        made = []

        class RecordingHistory(History):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.appended = []
                made.append(self)

            def append(self, t, state):
                self.appended.append(float(t))
                super().append(t, state)

        monkeypatch.setattr(mks.stepping, "History", RecordingHistory)
        spec, bundle, kernel, cfg = self._setup(grid4)
        _, diag = solve_with_memory(spec, cfg, kernel, bundle)
        prefix, *iterates = made
        assert len(iterates) == sum(w["iterations"] for w in diag["windows"])
        last_start = diag["windows"][-1]["window"][0]
        assert prefix.appended == [float(t) for t in bundle.times
                                   if t < last_start]
        first = 0
        for w in diag["windows"]:
            t_a, t_b = w["window"]
            window_times = [float(t) for t in bundle.times if t_a <= t <= t_b]
            for h in iterates[first:first + w["iterations"]]:
                assert h.appended == window_times
            first += w["iterations"]
