import numpy as np
import pytest

import mks.grid
from hypothesis import given, settings
from hypothesis import strategies as st

from mks.errors import ConfigurationError, UsageError
from mks.grid import (
    Field6,
    fft_array,
    ifft_array,
    l2_norm,
    random_field,
    to_physical,
    to_spectral,
    zero_field,
)
from mks.noise import (
    BrownianBundle,
    NoiseSpec,
    SeparableSource,
    TimeProfile,
    apply_gauge,
    band_limit_defect,
    cross_drift_apply,
    freeze_bundle_at_exit,
    gauge_phase,
    make_noise_spec,
    refine_bundle,
    restrict_bundle,
    sample_brownian,
    spectral_gradient,
    zero_source,
)
from mks.operators import maxwell_apply

from conftest import (
    banded_field,
    coords,
    drift_A_apply,
    transformed_current,
    transformed_noise,
)


class TestBrownianBundle:
    def test_starts_at_zero(self):
        b = sample_brownian(3, 2.0, 16, seed=1)
        assert np.all(b.values[:, 0] == 0.0)

    def test_deterministic_for_seed(self):
        a = sample_brownian(2, 1.0, 8, seed=7)
        b = sample_brownian(2, 1.0, 8, seed=7)
        assert np.array_equal(a.values, b.values)
        c = sample_brownian(2, 1.0, 8, seed=8)
        assert not np.array_equal(a.values, c.values)

    @given(steps=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_refinement_preserves_coarse_values_bitwise(self, steps, seed):
        base = sample_brownian(2, 1.0, steps, seed=seed)
        fine = refine_bundle(refine_bundle(base))
        back = restrict_bundle(fine, 4)
        assert np.array_equal(back.values, base.values)
        assert np.array_equal(back.times, base.times)

    def test_terminal_variance(self):
        vals = np.array([sample_brownian(1, 1.0, 4, seed=s).values[0, -1]
                         for s in range(10**4)])
        assert 0.94 <= vals.var() <= 1.06

    def test_increment_independence(self):
        # correlation of disjoint increments vanishes statistically
        incs = np.array([np.diff(sample_brownian(1, 1.0, 2, seed=s).values[0])
                         for s in range(4000)])
        corr = np.corrcoef(incs[:, 0], incs[:, 1])[0, 1]
        assert abs(corr) < 0.05

    def test_refined_increment_variance(self):
        fine = [refine_bundle(sample_brownian(1, 1.0, 4, seed=s)).values[0]
                for s in range(4000)]
        incs = np.diff(np.array(fine), axis=1)
        assert np.allclose(incs.var(axis=0), 1.0 / 8.0, rtol=0.15)

    def test_freeze_at_exit(self):
        b = sample_brownian(2, 1.0, 64, seed=3)
        level = 0.5 * np.max(np.abs(b.values))
        frozen, k_exit = freeze_bundle_at_exit(b, level)
        assert k_exit is not None
        assert np.all(frozen.values[:, k_exit:] ==
                      frozen.values[:, k_exit][:, None])
        assert np.array_equal(frozen.values[:, :k_exit], b.values[:, :k_exit])

    def test_freeze_no_exit(self):
        b = sample_brownian(2, 1.0, 16, seed=3)
        frozen, k_exit = freeze_bundle_at_exit(b, 1e9)
        assert k_exit is None
        assert frozen is b


class TestTimeProfiles:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            TimeProfile("sawtooth", 1.0)


def _spec_with_cos_multiplier(grid, amplitude=0.2, b_scale=0.1, seed=5):
    x, _, _ = coords(grid)
    n = grid.points_per_axis
    B1 = amplitude * np.cos(np.broadcast_to(x, (n, n, n)))
    b = SeparableSource(shape=banded_field(grid, seed=seed, scale=b_scale),
                        profile=TimeProfile("cos", 1.0))
    u0 = banded_field(grid, seed=seed + 1)
    return make_noise_spec(grid, [B1], [b], zero_source(grid), u0)


class TestNoiseSpecValidation:
    def test_band_limit_enforced(self, grid8):
        rng = np.random.default_rng(0)
        rough = rng.standard_normal((8, 8, 8))  # white: leaks past half-Nyquist
        with pytest.raises(ConfigurationError):
            make_noise_spec(grid8, [rough], [zero_source(grid8)],
                            zero_source(grid8), zero_field(grid8))

    def test_count_mismatch(self, grid8):
        with pytest.raises(ConfigurationError):
            make_noise_spec(grid8, [np.zeros((8, 8, 8))], [],
                            zero_source(grid8), zero_field(grid8))

    def test_gradient_is_spectral(self, grid16):
        x, _, _ = coords(grid16)
        n = grid16.points_per_axis
        B = 0.3 * np.cos(np.broadcast_to(x, (n, n, n)))
        g = spectral_gradient(grid16, B)
        expected = -0.3 * np.sin(np.broadcast_to(x, (n, n, n)))
        assert np.max(np.abs(g[0] - expected)) < 1e-12
        assert np.max(np.abs(g[1:])) < 1e-12

    def test_band_limit_defect_values(self, grid16):
        x, _, _ = coords(grid16)
        n = grid16.points_per_axis
        smooth = np.cos(np.broadcast_to(x, (n, n, n)))
        assert band_limit_defect(grid16, smooth) < 1e-12
        rough = np.cos(7 * np.broadcast_to(x, (n, n, n)))
        assert band_limit_defect(grid16, rough) > 0.9


def gauge_conjugation_defect(spec: NoiseSpec, bundle: BrownianBundle,
                             k: int, y: Field6) -> float:
    """L^2 defect of exp(-iPhi) m(exp(iPhi) y) - m y - cross-term drift.

    The product-rule identity behind the whole transform; should vanish to
    spectral-differentiation accuracy for band-limited B_j.
    """
    phase = gauge_phase(spec, bundle, k)
    lifted = apply_gauge(y, phase, "inverse")  # multiply by exp(+iPhi)
    m_lifted = to_physical(maxwell_apply(to_spectral(lifted)))
    left = apply_gauge(m_lifted, phase, "forward").data
    my = to_physical(maxwell_apply(to_spectral(y))).data
    expected = cross_drift_apply(spec, bundle.values[:, k], y)
    defect = left - my - expected
    return l2_norm(y.with_data(defect))


class TestGauge:
    def test_identity_at_time_zero(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=2)
        phase = gauge_phase(spec, bundle, 0)
        assert np.max(np.abs(phase.values - 1.0)) == 0.0

    def test_unimodular(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=3)
        phase = gauge_phase(spec, bundle, 4)
        assert np.max(np.abs(np.abs(phase.values) - 1.0)) < 1e-14

    def test_norm_preserved(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=4)
        phase = gauge_phase(spec, bundle, 2)
        u = random_field(grid8, seed=6)
        assert abs(l2_norm(apply_gauge(u, phase, "forward")) - l2_norm(u)) \
            < 1e-12 * l2_norm(u)
        assert np.max(np.abs(np.abs(apply_gauge(u, phase, "forward").data)
                             - np.abs(u.data))) < 1e-13

    def test_round_trip(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=5)
        phase = gauge_phase(spec, bundle, 4)
        u = random_field(grid8, seed=7)
        back = apply_gauge(apply_gauge(u, phase, "forward"), phase, "inverse")
        assert np.max(np.abs(back.data - u.data)) <= 1e-14 * np.max(np.abs(u.data))

    def test_bad_direction(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=5)
        phase = gauge_phase(spec, bundle, 4)
        with pytest.raises(UsageError):
            apply_gauge(random_field(grid8, seed=8), phase, "sideways")

    def test_conjugation_identity(self, grid16):
        # the keystone: exp(-iPhi) m(exp(iPhi) y) - m y equals the cross drift;
        # the phase must stay spectrally narrow relative to the Nyquist margin,
        # otherwise the discrete product rule picks up aliasing
        spec = _spec_with_cos_multiplier(grid16, amplitude=0.1)
        bundle = sample_brownian(1, 1.0, 8, seed=9)
        y = banded_field(grid16, seed=10, level=1)
        for k in (1, 4, 8):
            defect = gauge_conjugation_defect(spec, bundle, k, y)
            assert defect <= 1e-10 * l2_norm(y)


class TestDriftA:
    def test_constant_multiplier(self, grid8):
        c = 0.37
        n = grid8.points_per_axis
        spec = make_noise_spec(grid8, [c * np.ones((n, n, n))],
                               [zero_source(grid8)], zero_source(grid8),
                               zero_field(grid8))
        bundle = sample_brownian(1, 1.0, 8, seed=11)
        y = random_field(grid8, seed=12)
        out = drift_A_apply(y, 4, spec, bundle)
        assert np.max(np.abs(out.data - 0.5 * c**2 * y.data)) < 1e-14

    def test_skew_part_does_no_work(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=13)
        y = random_field(grid8, seed=14)
        out = drift_A_apply(y, 4, spec, bundle)
        b2 = spec.B_fields[0] ** 2
        skew = out.data - 0.5 * b2 * y.data
        work = np.sum((np.conj(y.data) * skew).real) * grid8.cell_volume
        assert abs(work) < 1e-12 * l2_norm(y) ** 2

    def test_quadratic_part_nonnegative(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=15)
        for s in range(10):
            y = random_field(grid8, seed=100 + s)
            out = drift_A_apply(y, 2, spec, bundle)
            val = np.sum((np.conj(y.data) * out.data).real) * grid8.cell_volume
            assert val >= -1e-12 * l2_norm(y) ** 2


class TestTransformedCoefficients:
    def test_current_reduces_to_forcing(self, grid8):
        n = grid8.points_per_axis
        J = SeparableSource(shape=random_field(grid8, seed=16))
        spec = make_noise_spec(grid8, [np.zeros((n, n, n))],
                               [zero_source(grid8)], J, zero_field(grid8))
        bundle = sample_brownian(1, 1.0, 8, seed=17)
        out = transformed_current(4, spec, bundle)
        assert np.array_equal(out.data, J.at(0.5))

    def test_current_constant_multiplier(self, grid8):
        c = 0.41
        n = grid8.points_per_axis
        b = SeparableSource(shape=random_field(grid8, seed=18, scale=0.3))
        spec = make_noise_spec(grid8, [c * np.ones((n, n, n))], [b],
                               zero_source(grid8), zero_field(grid8))
        bundle = sample_brownian(1, 1.0, 8, seed=19)
        out = transformed_current(0, spec, bundle)  # beta(0) = 0, phase = 1
        assert np.max(np.abs(out.data + 1j * c * b.at(0.0))) < 1e-14

    def test_current_pointwise_oracle(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        J = SeparableSource(shape=random_field(grid8, seed=20, scale=0.2),
                            profile=TimeProfile("sin", 2.0))
        spec = make_noise_spec(grid8, list(spec.B_fields),
                               list(spec.b_sources), J, spec.u0)
        bundle = sample_brownian(1, 1.0, 8, seed=21)
        step = 3
        t = bundle.times[step]
        out = transformed_current(step, spec, bundle)
        beta = bundle.values[0, step]
        rng = np.random.default_rng(1)
        for _ in range(5):
            i, j, k = rng.integers(0, 8, size=3)
            c = rng.integers(0, 6)
            expected = (-1j * spec.b_sources[0].at(t)[c, i, j, k]
                        * spec.B_fields[0][i, j, k]
                        + J.at(t)[c, i, j, k]) * np.exp(
                            -1j * spec.B_fields[0][i, j, k] * beta)
            assert abs(out.data[c, i, j, k] - expected) < 1e-14

    def test_noise_reduces_to_amplitude(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=22)
        out = transformed_noise(0, 0, spec, bundle)  # beta(0) = 0
        assert np.array_equal(out.data, spec.b_sources[0].at(0.0))

    def test_noise_modulus_preserved(self, grid8):
        spec = _spec_with_cos_multiplier(grid8)
        bundle = sample_brownian(1, 1.0, 8, seed=23)
        out = transformed_noise(0, 4, spec, bundle)
        b = spec.b_sources[0].at(0.5)
        assert np.max(np.abs(np.abs(out.data) - np.abs(b))) < 1e-14
        assert abs(l2_norm(out) - np.sqrt(grid8.cell_volume)
                   * np.linalg.norm(b)) < 1e-12


def test_zero_multipliers_cost_no_transform(grid8, monkeypatch):
    # the gradient of a zero B_j is the array the transforms would give,
    # bitwise: the transforms of zeros make no negative zeros
    n = grid8.points_per_axis
    zero = np.zeros((n, n, n))
    transformed = ifft_array(np.stack(
        [1j * k * fft_array(zero) for k in grid8.k_components()])).real
    calls = []
    monkeypatch.setattr(mks.grid, "_c2c", lambda *args: calls.append(args))
    spec = make_noise_spec(grid8, [zero, zero], [zero_source(grid8)] * 2,
                           zero_source(grid8), zero_field(grid8))
    assert band_limit_defect(grid8, zero) == 0.0
    assert calls == []
    for g in spec.grad_B:
        assert np.array_equal(g, transformed)
        assert not np.signbit(g).any() and not np.signbit(transformed).any()
