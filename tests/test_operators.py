import numpy as np
import pytest

from mks.errors import ConfigurationError, UsageError
from mks.grid import (
    Field6,
    inner_product,
    l2_norm,
    make_grid,
    random_field,
    to_physical,
    to_spectral,
    zero_field,
)
from mks.operators import (
    HELMHOLTZ,
    HODGE_LAPLACIAN,
    MAXWELL,
    curl,
    dense_group_matrix,
    dense_operator,
    div,
    grad,
    helmholtz_project,
    hodge_laplacian_apply,
    maxwell_apply,
    maxwell_group,
)

from conftest import plane_wave


def rel(a, b, scale):
    return np.max(np.abs(a - b)) / scale


class TestCurlDivGrad:
    def test_curl_of_constant_is_zero(self, grid4):
        hat = to_spectral(zero_field(grid4).with_data(
            np.ones((6, 4, 4, 4), dtype=np.complex128)))
        assert np.max(np.abs(curl(grid4, hat.block1))) == 0.0

    def test_curl_of_gradient_vanishes(self, grid8):
        rng = np.random.default_rng(1)
        n = grid8.points_per_axis
        phi = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        g = grad(grid8, phi)
        assert np.max(np.abs(curl(grid8, g))) < 1e-12 * np.max(np.abs(g))

    def test_curl_of_plane_wave(self, grid8):
        # u = (0, 0, e^{i k1 x1}) -> curl u = (0, -i k1 e^{i k1 x1}, 0)
        f = plane_wave(grid8, (1, 0, 0), component=2)
        out = to_physical(to_spectral(f).with_data(np.concatenate([
            curl(grid8, to_spectral(f).block1), np.zeros((3, 8, 8, 8))])))
        expected = -1j * 1.0 * f.data[2]
        assert np.max(np.abs(out.data[1] - expected)) < 1e-12
        assert np.max(np.abs(out.data[0])) < 1e-13
        assert np.max(np.abs(out.data[2])) < 1e-13

    def test_div_of_curl_vanishes(self, grid8):
        u = to_spectral(random_field(grid8, seed=2))
        c = curl(grid8, u.block1)
        assert np.max(np.abs(div(grid8, c))) < 1e-12 * np.max(np.abs(c))

    def test_grad_of_constant_is_zero(self, grid4):
        phi = np.full((4, 4, 4), 0j)
        phi[0, 0, 0] = 3.0  # spectral constant
        assert np.max(np.abs(grad(grid4, phi))) == 0.0

    def test_div_grad_is_minus_k_squared(self, grid8):
        rng = np.random.default_rng(3)
        n = grid8.points_per_axis
        phi = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        composed = div(grid8, grad(grid8, phi))
        expected = -grid8.k_squared() * phi
        assert np.max(np.abs(composed - expected)) < 1e-12 * np.max(np.abs(expected))


class TestMaxwellOperator:
    def test_constant_maps_to_zero(self, grid4):
        f = to_spectral(zero_field(grid4).with_data(
            np.ones((6, 4, 4, 4), dtype=np.complex128)))
        assert l2_norm(maxwell_apply(f)) == 0.0

    def test_skew_adjoint_does_no_work(self, grid8):
        for s in range(5):
            u = to_spectral(random_field(grid8, seed=100 + s))
            assert abs(inner_product(maxwell_apply(u), u).real) \
                < 1e-12 * l2_norm(u) ** 2

    def test_matches_dense_oracle(self, grid4):
        op = dense_operator(MAXWELL, grid4)
        u = random_field(grid4, seed=4)
        fast = to_physical(maxwell_apply(to_spectral(u))).data.ravel()
        dense = op.matrix @ u.data.ravel()
        assert np.max(np.abs(dense - fast)) < 1e-10 * np.max(np.abs(fast))

    def test_physical_input_rejected(self, grid4):
        with pytest.raises(UsageError):
            maxwell_apply(random_field(grid4, seed=5))


class TestHodgeLaplacian:
    def test_constant_maps_to_zero(self, grid4):
        f = to_spectral(zero_field(grid4).with_data(
            np.ones((6, 4, 4, 4), dtype=np.complex128)))
        assert l2_norm(hodge_laplacian_apply(f)) == 0.0

    def test_plane_wave_eigenfunction(self, grid8):
        f = to_spectral(plane_wave(grid8, (2, 1, 0), component=4))
        out = hodge_laplacian_apply(f)
        assert np.max(np.abs(out.data + 5.0 * f.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_equals_grad_div_minus_curl_curl(self, grid8):
        u = to_spectral(random_field(grid8, seed=6))
        lap = hodge_laplacian_apply(u)
        for sl in (slice(0, 3), slice(3, 6)):
            blk = u.data[sl]
            composed = grad(grid8, div(grid8, blk)) - curl(grid8, curl(grid8, blk))
            assert np.max(np.abs(composed - lap.data[sl])) \
                < 1e-12 * np.max(np.abs(lap.data))

    def test_square_of_maxwell(self, grid8):
        u = to_spectral(random_field(grid8, seed=7))
        m2 = maxwell_apply(maxwell_apply(u))
        lp = hodge_laplacian_apply(helmholtz_project(u))
        assert l2_norm(u.with_data(m2.data - lp.data)) < 1e-12 * l2_norm(u)


class TestHelmholtzProjection:
    def test_gradient_field_annihilated(self, grid8):
        rng = np.random.default_rng(8)
        n = grid8.points_per_axis
        data = np.concatenate([
            grad(grid8, rng.standard_normal((n, n, n)) + 0j),
            grad(grid8, rng.standard_normal((n, n, n)) + 0j)])
        f = Field6(grid8, "spectral", data)
        assert l2_norm(helmholtz_project(f)) < 1e-12 * l2_norm(f)

    def test_divergence_free_fixed(self, grid8):
        u = helmholtz_project(to_spectral(random_field(grid8, seed=9)))
        again = helmholtz_project(u)
        assert np.max(np.abs(again.data - u.data)) < 1e-12 * np.max(np.abs(u.data))

    def test_output_divergence_free(self, grid8):
        u = helmholtz_project(to_spectral(random_field(grid8, seed=10)))
        for blk in (u.block1, u.block2):
            assert np.max(np.abs(div(grid8, blk))) < 1e-11

    def test_dense_oracle_idempotent_self_adjoint(self, grid4):
        op = dense_operator(HELMHOLTZ, grid4)
        m = op.matrix
        assert np.max(np.abs(m @ m - m)) < 1e-10
        assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_constants_kept(self, grid4):
        f = to_spectral(zero_field(grid4).with_data(
            np.ones((6, 4, 4, 4), dtype=np.complex128)))
        out = helmholtz_project(f)
        assert np.max(np.abs(out.data - f.data)) == 0.0


class TestMaxwellGroup:
    def test_t_zero_is_identity(self, grid8):
        u = to_spectral(random_field(grid8, seed=11))
        out = maxwell_group(0.0, u)
        assert np.max(np.abs(out.data - u.data)) < 1e-14 * np.max(np.abs(u.data))

    def test_gradient_part_unchanged(self, grid8):
        rng = np.random.default_rng(12)
        n = grid8.points_per_axis
        data = np.concatenate([
            grad(grid8, rng.standard_normal((n, n, n)) + 0j),
            grad(grid8, rng.standard_normal((n, n, n)) + 0j)])
        f = Field6(grid8, "spectral", data)
        out = maxwell_group(0.7, f)
        assert np.max(np.abs(out.data - f.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_isometry(self, grid8):
        u = to_spectral(random_field(grid8, seed=13))
        for t in (0.1, 0.5, 2.0):
            assert abs(l2_norm(maxwell_group(t, u)) - l2_norm(u)) \
                < 1e-12 * l2_norm(u)

    def test_group_law(self, grid8):
        u = to_spectral(random_field(grid8, seed=14))
        ab = maxwell_group(0.4, maxwell_group(0.3, u))
        c = maxwell_group(0.7, u)
        assert np.max(np.abs(ab.data - c.data)) < 1e-12 * np.max(np.abs(c.data))

    def test_cached_tables_give_the_uncached_formula_bitwise(self, grid8):
        u = to_spectral(random_field(grid8, seed=16))
        t = 0.37
        expected = closed_form_group(grid8, t, u.data)
        for _ in range(2):  # the second call reads the cache
            assert np.array_equal(maxwell_group(t, u).data, expected)

    def test_stack_equals_each_field_alone_bitwise(self, grid8):
        fields = [to_spectral(random_field(grid8, seed=(17, p))) for p in range(3)]
        stack = fields[0].with_data(np.stack([f.data for f in fields]))
        out = maxwell_group(0.29, stack).data
        for p, f in enumerate(fields):
            assert np.array_equal(out[p], maxwell_group(0.29, f).data)


def closed_form_group(grid, t, data):
    """exp(t m) on one spectral field, evaluated uncached in the operator's
    order: c u1 + w k (k . u1) + i s k x u2 on top, with u2 and -u1 below."""
    n = grid.points_per_axis
    kr = [np.broadcast_to(k, (n, n, n)) for k in grid.k_components()]
    kabs = np.sqrt(kr[0]**2 + kr[1]**2 + kr[2]**2)
    inv_kabs = np.zeros_like(kabs)
    inv_kabs[kabs > 0] = 1.0 / kabs[kabs > 0]
    c = np.cos(kabs * t) + 0j
    w = 2.0 * np.sin(0.5 * kabs * t)**2 * inv_kabs**2 + 0j
    i_s = 1j * np.sin(kabs * t) * inv_kabs
    k = [ki + 0j for ki in kr]
    s = [i_s * ki for ki in kr]
    out = []
    for a, b, sign in ((data[:3], data[3:], 1), (data[3:], data[:3], -1)):
        kdot = (k[0] * a[0] + k[1] * a[1] + k[2] * a[2]) * w
        for i in range(3):
            j, l = (i + 1) % 3, (i + 2) % 3
            along = c * a[i] + k[i] * kdot
            if sign > 0:
                out.append(along + s[j] * b[l] - s[l] * b[j])
            else:
                out.append(along - s[j] * b[l] + s[l] * b[j])
    return np.stack(out)


def test_import_leaves_scipy_linalg_unloaded():
    import os
    import subprocess
    import sys

    import mks

    src = os.path.dirname(os.path.dirname(mks.__file__))
    code = ("import sys, mks, mks.harness, mks.cli; "
            "print('scipy.linalg' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "False"


def test_import_leaves_scipy_fft_unloaded():
    # the FFT seam loads scipy's compiled kernel alone: the scipy.fft
    # package would pull in scipy.special and numpy.f2py at import
    import os
    import subprocess
    import sys

    import mks

    src = os.path.dirname(os.path.dirname(mks.__file__))
    code = ("import sys, mks, mks.harness, mks.cli; print(sorted(m for m in "
            "('scipy.fft', 'scipy.special', 'numpy.f2py') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


class TestDenseOperator:
    def test_maxwell_matrix_skew_hermitian(self, grid4):
        m = dense_operator(MAXWELL, grid4).matrix
        assert np.max(np.abs(m + m.conj().T)) < 1e-12

    def test_laplacian_matrix_hermitian(self, grid4):
        m = dense_operator(HODGE_LAPLACIAN, grid4).matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-10

    def test_size_guard(self):
        g = make_grid(16, 2 * np.pi)
        with pytest.raises(ConfigurationError):
            dense_operator(MAXWELL, g)

    def test_unknown_kind(self, grid4):
        with pytest.raises(ConfigurationError):
            dense_operator("transmogrify", grid4)

    def test_group_matrix_is_unitary(self, grid4):
        em = dense_group_matrix(0.3, grid4)
        eye = em @ em.conj().T
        assert np.max(np.abs(eye - np.eye(em.shape[0]))) < 1e-10

