import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mks.errors import ConfigurationError, UsageError
from mks.grid import inner_product, l2_norm, lp_norm, pointwise_norm, random_field, to_spectral, zero_field
from mks.kerr import (
    KerrExponent,
    implicit_kerr_solve,
    kerr_force,
    kerr_hessian_apply,
    kerr_jacobian_apply,
    monotonicity_constant,
    monotonicity_gap,
    monotonicity_gap_scalars,
)


class TestKerrExponent:
    def test_positive_required(self):
        with pytest.raises(ConfigurationError):
            KerrExponent(0.0)

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.5, 3.0])
    def test_strong_mode_range(self, q):
        with pytest.raises(ConfigurationError):
            KerrExponent(q, strong_mode=True)

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_strong_mode_accepts(self, q):
        assert KerrExponent(q, strong_mode=True).q == q


class TestForce:
    def test_zero(self, grid4):
        assert l2_norm(kerr_force(zero_field(grid4), 2.0)) == 0.0

    def test_pointwise_value(self, grid4):
        f = zero_field(grid4)
        data = np.zeros_like(f.data)
        data[0] = 2.0
        out = kerr_force(f.with_data(data), 2.0)
        assert np.allclose(out.data[0], 8.0)
        assert np.max(np.abs(out.data[1:])) == 0.0

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_norm_identity(self, grid4, q):
        # ||F(u)||_{(q+2)/(q+1)} = ||u||_{q+2}^{q+1}
        u = random_field(grid4, seed=1)
        lhs = lp_norm(kerr_force(u, q), (q + 2) / (q + 1))
        rhs = lp_norm(u, q + 2) ** (q + 1)
        assert np.isclose(lhs, rhs, rtol=1e-12)

    def test_accepts_exponent_object(self, grid4):
        u = random_field(grid4, seed=2)
        a = kerr_force(u, 2.0)
        b = kerr_force(u, KerrExponent(2.0))
        assert np.array_equal(a.data, b.data)

    def test_spectral_rejected(self, grid4):
        with pytest.raises(UsageError):
            kerr_force(to_spectral(random_field(grid4, seed=3)), 2.0)


class TestJacobian:
    def test_zero_direction(self, grid4):
        u = random_field(grid4, seed=4)
        assert l2_norm(kerr_jacobian_apply(u, zero_field(grid4), 2.0)) == 0.0

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_zero_base_point(self, grid4, q):
        v = random_field(grid4, seed=5)
        assert l2_norm(kerr_jacobian_apply(zero_field(grid4), v, q)) == 0.0

    def test_positivity(self, grid4):
        for s in range(100):
            u = random_field(grid4, seed=1000 + s)
            v = random_field(grid4, seed=2000 + s)
            val = inner_product(kerr_jacobian_apply(u, v, 2.0), v).real
            assert val >= -1e-12 * l2_norm(v) ** 2


class TestHessian:
    def test_zero_base_point(self, grid4):
        v = random_field(grid4, seed=8)
        w = random_field(grid4, seed=9)
        out = kerr_hessian_apply(zero_field(grid4), v, w, 1.5)
        assert l2_norm(out) == 0.0

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    def test_symmetry(self, grid4, q):
        u = random_field(grid4, seed=10)
        v = random_field(grid4, seed=11)
        w = random_field(grid4, seed=12)
        a = kerr_hessian_apply(u, v, w, q)
        b = kerr_hessian_apply(u, w, v, q)
        scale = max(np.max(np.abs(a.data)), 1.0)
        assert np.max(np.abs(a.data - b.data)) <= 1e-12 * scale

    @pytest.mark.parametrize("q", [2.0, 3.0])
    def test_central_difference_of_jacobian(self, grid4, q):
        u = random_field(grid4, seed=13)
        v = random_field(grid4, seed=14)
        w = random_field(grid4, seed=15)
        hess = kerr_hessian_apply(u, v, w, q)
        errs = []
        eps_list = [1e-3, 3e-4]
        for eps in eps_list:
            fd = (kerr_jacobian_apply(u.with_data(u.data + eps * w.data), v, q).data
                  - kerr_jacobian_apply(u.with_data(u.data - eps * w.data), v, q).data
                  ) / (2 * eps)
            errs.append(l2_norm(u.with_data(fd - hess.data)))
        assert errs[-1] <= max(1e-4 * l2_norm(hess), 1e-9)

    def test_growth_bound(self, grid4):
        # |F''(u)(v,v)(x)| <= C_q |u(x)|^{q-1} |v(x)|^2
        q = 1.5
        u = random_field(grid4, seed=16)
        v = random_field(grid4, seed=17)
        out = kerr_hessian_apply(u, v, v, q)
        lhs = pointwise_norm(out)
        rhs = pointwise_norm(u) ** (q - 1.0) * pointwise_norm(v) ** 2
        c_q = q * (abs(q - 2.0) + 3.0)
        assert np.all(lhs <= c_q * rhs + 1e-12)

    def test_low_exponent_rejected(self, grid4):
        u = random_field(grid4, seed=18)
        with pytest.raises(ConfigurationError):
            kerr_hessian_apply(u, u, u, 1.0)


class TestMonotonicity:
    def test_equal_arguments(self, grid4):
        u = random_field(grid4, seed=19)
        assert monotonicity_gap(u, u, 2.0) == 0.0

    def test_zero_base_identity(self, grid4):
        # u = 0: Re<F(v), -v> = -||v||_{q+2}^{q+2} <= -2^{-q} ||v||
        q = 2.0
        v = random_field(grid4, seed=20)
        gap = monotonicity_gap(zero_field(grid4), v, q)
        expected = (monotonicity_constant(q) - 1.0) * lp_norm(v, q + 2) ** (q + 2)
        assert np.isclose(gap, expected, rtol=1e-12)
        assert gap <= 0.0

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_field_pairs(self, grid4, q):
        for s in range(100):
            u = random_field(grid4, seed=3000 + s)
            v = random_field(grid4, seed=4000 + s)
            gap = monotonicity_gap(u, v, q)
            scale = lp_norm(u.with_data(u.data - v.data), q + 2) ** (q + 2)
            assert gap <= 1e-12 * max(scale, 1.0)

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_scalar_sweep_million(self, q):
        rng = np.random.default_rng(42)
        m = 10**6
        a = rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m))
        b = rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m))
        gaps = monotonicity_gap_scalars(a, b, q)
        assert float(np.max(gaps)) <= 0.0

    def test_antipodal_sharpness(self):
        # the constant 2^{-q} is attained at antipodal real points
        a = np.array([[1.0 + 0j]])
        b = np.array([[-1.0 + 0j]])
        gap = monotonicity_gap_scalars(a, b, 2.0)
        assert abs(gap[0]) < 1e-14

    @given(st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=5),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=300, deadline=None)
    def test_scalar_pairs_hypothesis(self, ar, ai, br, bi):
        a = np.array([[ar + 1j * ai]])
        b = np.array([[br + 1j * bi]])
        gap = monotonicity_gap_scalars(a, b, 1.5)
        scale = max(abs(a[0, 0] - b[0, 0]) ** 3.5, 1.0)
        assert gap[0] <= 1e-12 * scale


class TestImplicitSolve:
    def test_zero_input(self, grid4):
        out = implicit_kerr_solve(zero_field(grid4), 0.5, 2.0)
        assert l2_norm(out) == 0.0

    def test_forced_value(self, grid4):
        # q = 2, dt = 1, |w| = 2: s + s^3 = 2 -> s = 1, v = w / 2
        f = zero_field(grid4)
        data = np.zeros_like(f.data)
        data[0] = 2.0
        w = f.with_data(data)
        out = implicit_kerr_solve(w, 1.0, 2.0)
        assert np.max(np.abs(out.data - data / 2.0)) < 1e-12

    @pytest.mark.parametrize("q,dt", [(1.5, 0.1), (2.0, 1.0), (3.0, 0.01)])
    def test_residual(self, grid4, q, dt):
        w = random_field(grid4, seed=21, scale=3.0)
        v = implicit_kerr_solve(w, dt, q)
        residual = np.abs(v.data + dt * pointwise_norm(v) ** q * v.data - w.data)
        assert np.max(residual / (1.0 + pointwise_norm(w))) <= 1e-12

    def test_matches_bisection_oracle(self, grid4):
        q, dt = 1.7, 0.6
        w = random_field(grid4, seed=22, scale=2.0)
        v = implicit_kerr_solve(w, dt, q)
        r = pointwise_norm(w).ravel()
        s = pointwise_norm(v).ravel()
        for idx in np.random.default_rng(0).choice(r.size, size=20):
            lo, hi = 0.0, r[idx]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if mid + dt * mid ** (q + 1) > r[idx]:
                    hi = mid
                else:
                    lo = mid
            assert abs(s[idx] - 0.5 * (lo + hi)) < 1e-10 * (1 + r[idx])

    @pytest.mark.parametrize("dt", [1e-3, 0.1, 10.0])
    def test_dissipative(self, grid4, dt):
        w = random_field(grid4, seed=23)
        v = implicit_kerr_solve(w, dt, 2.0)
        assert l2_norm(v) <= l2_norm(w)

    def test_bad_dt(self, grid4):
        with pytest.raises(UsageError):
            implicit_kerr_solve(random_field(grid4, seed=24), 0.0, 2.0)


class TestLocalLipschitz:
    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_witness_constant(self, grid4, q):
        # ||F(u)-F(v)||_{(q+2)/(q+1)} <= C (||u||^q + ||v||^q) ||u - v||_{q+2}
        worst = 0.0
        for s in range(50):
            u = random_field(grid4, seed=5000 + s)
            v = random_field(grid4, seed=6000 + s)
            dualp = (q + 2.0) / (q + 1.0)
            num = lp_norm(u.with_data(kerr_force(u, q).data
                                      - kerr_force(v, q).data), dualp)
            den = ((lp_norm(u, q + 2) ** q + lp_norm(v, q + 2) ** q)
                   * lp_norm(u.with_data(u.data - v.data), q + 2))
            worst = max(worst, num / den)
        assert worst <= 4.0
