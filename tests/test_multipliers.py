import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mks.errors import ConfigurationError, UsageError
from mks.grid import (
    inner_product,
    l2_norm,
    lp_norm,
    make_grid,
    random_field,
    to_physical,
    to_spectral,
)
from mks.multipliers import (
    CutoffLevel,
    cutoff_sandwich_check,
    radial_sharp_cutoff,
    radial_sharp_mask,
    sharp_cutoff,
    smooth_cutoff,
    smooth_mask,
    standard_window,
)
from mks.operators import maxwell_apply

from conftest import plane_wave


class TestWindow:
    def test_support(self):
        w = standard_window()
        xs = np.array([0.1, 0.5, 2.0, 3.0, 100.0])
        assert np.all(w(xs) == 0.0)
        assert np.all(w(np.array([0.75, 1.0, 1.5])) > 0.0)

    def test_partition_at_one(self):
        w = standard_window()
        assert np.isclose(w.partition_sum(np.array([1.0]))[0], 1.0, atol=1e-12)

    def test_partition_on_log_grid(self):
        w = standard_window()
        xs = np.logspace(-3, 6, 1000)
        assert np.max(np.abs(w.partition_sum(xs) - 1.0)) <= 1e-10

    @given(x=st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_partition_pointwise(self, x):
        w = standard_window()
        assert abs(w.partition_sum(np.array([x]))[0] - 1.0) <= 1e-10

    def test_range(self):
        w = standard_window()
        xs = np.linspace(0.4, 2.2, 500)
        vals = w(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)


class TestCutoffLevel:
    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            CutoffLevel(-1)

    def test_overflow_guard(self):
        with pytest.raises(ConfigurationError):
            CutoffLevel(100)


class TestSharpCutoff:
    def test_identity_beyond_nyquist(self, grid8):
        u = to_spectral(random_field(grid8, seed=1))
        out = sharp_cutoff(u, CutoffLevel(2))  # 2^2 = 4 = Nyquist of 8^3/2pi
        assert np.array_equal(out.data, u.data)

    def test_kills_single_high_mode(self, grid8):
        f = to_spectral(plane_wave(grid8, (3, 0, 0)))
        out = sharp_cutoff(f, CutoffLevel(1))  # 3 > 2
        assert l2_norm(out) < 1e-13 * l2_norm(f)

    def test_idempotent_and_self_adjoint(self, grid8):
        lev = CutoffLevel(1)
        u = to_spectral(random_field(grid8, seed=2))
        v = to_spectral(random_field(grid8, seed=3))
        pu = sharp_cutoff(u, lev)
        assert np.array_equal(sharp_cutoff(pu, lev).data, pu.data)
        lhs = inner_product(pu, v)
        rhs = inner_product(u, sharp_cutoff(v, lev))
        assert abs(lhs - rhs) < 1e-12 * l2_norm(u) * l2_norm(v)

    def test_norm_never_grows(self, grid8):
        lev = CutoffLevel(1)
        u = to_spectral(random_field(grid8, seed=4))
        assert l2_norm(sharp_cutoff(u, lev)) <= l2_norm(u)
        band = sharp_cutoff(u, lev)
        # equality on band-limited input
        assert np.isclose(l2_norm(sharp_cutoff(band, lev)), l2_norm(band))

    def test_physical_rejected(self, grid8):
        with pytest.raises(UsageError):
            sharp_cutoff(random_field(grid8, seed=5), CutoffLevel(1))


class TestSmoothCutoff:
    def test_plateau_mode_unchanged(self, grid8):
        # 1 + |k|^2 = 2 <= 2^n for n = 1
        f = to_spectral(plane_wave(grid8, (1, 0, 0)))
        out = smooth_cutoff(f, CutoffLevel(1))
        assert np.max(np.abs(out.data - f.data)) < 1e-14

    def test_far_mode_killed(self, grid8):
        # 1 + |k|^2 = 17 >= 2^{n+1} for n = 3
        f = to_spectral(plane_wave(grid8, (4, 0, 0)))
        assert l2_norm(smooth_cutoff(f, CutoffLevel(3))) < 1e-13 * l2_norm(f)

    def test_transition_value_is_window_at_three_halves(self, grid16):
        # modes with 1 + |k|^2 = 3 * 2^{n-1}: n = 3 needs |k|^2 = 11;
        # n = 2 needs |k|^2 = 5 -> mode (2, 1, 0)
        w = standard_window()
        f = to_spectral(plane_wave(grid16, (2, 1, 0)))
        out = smooth_cutoff(f, CutoffLevel(2))
        ratio = out.data[0, 2, 1, 0] / f.data[0, 2, 1, 0]
        assert np.isclose(ratio.real, w(np.array([1.5]))[0], atol=1e-12)
        assert abs(ratio.imag) < 1e-14

    def test_mask_values_bounded(self, grid16):
        for n in (1, 2, 3):
            m = smooth_mask(grid16, CutoffLevel(n))
            assert np.all(m >= 0.0) and np.all(m <= 1.0 + 1e-12)


class TestSandwich:
    # levels 0-2 on 8^3 are the verify suite's multipliers/8^3/sandwich record
    @pytest.mark.parametrize("n", [3])
    def test_max_violation_tiny(self, grid8, n):
        report = cutoff_sandwich_check(CutoffLevel(n), grid8)
        assert report["max_violation"] <= 1e-12

    def test_level_zero_annihilates_all_but_dc(self, grid8):
        p0 = radial_sharp_mask(grid8, CutoffLevel(0))
        expected = 1.0 + grid8.k_squared() <= 1.0
        assert np.array_equal(p0, expected)
        assert p0.sum() == 1  # only k = 0

    def test_smooth_and_sharp_commute(self, grid8):
        u = to_spectral(random_field(grid8, seed=6))
        a = smooth_cutoff(radial_sharp_cutoff(u, CutoffLevel(2)), CutoffLevel(3))
        b = radial_sharp_cutoff(smooth_cutoff(u, CutoffLevel(3)), CutoffLevel(2))
        assert np.max(np.abs(a.data - b.data)) < 1e-14 * np.max(np.abs(u.data))


class TestCommutationWithOperators:
    @pytest.mark.parametrize("cutoff", [sharp_cutoff, radial_sharp_cutoff,
                                        smooth_cutoff])
    def test_commutes_with_maxwell(self, grid8, cutoff):
        lev = CutoffLevel(2)
        for s in range(5):
            u = to_spectral(random_field(grid8, seed=10 + s))
            a = maxwell_apply(cutoff(u, lev))
            b = cutoff(maxwell_apply(u), lev)
            assert np.max(np.abs(a.data - b.data)) < 1e-12 * l2_norm(u)


class TestUniformBounds:
    @pytest.mark.parametrize("p", [4.0 / 3.0, 2.0, 4.0])
    def test_lp_ratio_bounded_in_level(self, grid8, p):
        worst = 0.0
        for n in (1, 2):
            for s in range(10):
                f = random_field(grid8, seed=100 + s)
                sn = to_physical(smooth_cutoff(to_spectral(f), CutoffLevel(n)))
                worst = max(worst, lp_norm(sn, p) / lp_norm(f, p))
        assert worst <= 2.0

    def test_l2_contraction(self, grid8):
        for n in (0, 1, 2):
            u = to_spectral(random_field(grid8, seed=41))
            assert l2_norm(smooth_cutoff(u, CutoffLevel(n))) <= l2_norm(u)

    def test_ratio_stable_under_grid_refinement(self):
        # the witness must not grow when the grid is refined
        worst = {}
        for npts in (8, 16):
            g = make_grid(npts, 2 * np.pi)
            w = 0.0
            for s in range(5):
                f = random_field(g, seed=200 + s)
                sn = to_physical(smooth_cutoff(to_spectral(f), CutoffLevel(2)))
                w = max(w, lp_norm(sn, 4.0) / lp_norm(f, 4.0))
            worst[npts] = w
        assert worst[16] <= worst[8] * 1.25


class TestStrongConvergence:
    def test_smooth_field_recovered_at_high_level(self, grid16):
        # band-limited smooth data: S_n f = f exactly once the plateau covers it
        f = plane_wave(grid16, (1, 1, 0), component=3)
        hat = to_spectral(f)
        errs = []
        for n in (1, 2, 3, 4):
            sn = smooth_cutoff(hat, CutoffLevel(n))
            errs.append(l2_norm(hat.with_data(sn.data - hat.data)))
        assert errs[0] > 1e-3  # 1 + 2 = 3 sits in the n = 1 transition band
        assert errs[-1] < 1e-13 * l2_norm(hat)
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_lp_error_decreases(self, grid16, p):
        from conftest import banded_field

        f = banded_field(grid16, seed=7, level=2)
        errs = []
        for n in (1, 2, 3, 4, 5, 6):
            sn = to_physical(smooth_cutoff(to_spectral(f), CutoffLevel(n)))
            errs.append(lp_norm(f.with_data(sn.data - f.data), p))
        assert errs[-1] <= 1e-12 * lp_norm(f, p)
        assert all(a >= b - 1e-15 for a, b in zip(errs, errs[1:]))
