import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mks.errors import UsageError
from mks.galerkin import galerkin_space
from mks.grid import (
    PHYSICAL,
    Field6,
    fft_array,
    ifft_array,
    inner_product,
    l2_norm,
    make_grid,
    random_field,
    to_physical,
    to_spectral,
    write_checkpoint,
)
from mks.multipliers import CutoffLevel, sharp_cutoff, smooth_cutoff
from mks.operators import (
    helmholtz_project,
    hodge_laplacian_apply,
    maxwell_apply,
    maxwell_group,
)

from conftest import hermitian_defect


@pytest.fixture(scope="module")
def grid32():
    return make_grid(32, 2.0 * np.pi)


class TestSpace:
    def test_retained_modes_are_the_cube(self, grid32):
        space = galerkin_space(grid32, CutoffLevel(3))
        assert not space.covers
        assert space.shape == (6, 17, 17, 17)
        assert np.array_equal(space.wavenumbers,
                              np.fft.fftfreq(17, d=1.0 / 17))

    def test_cached_per_grid_and_level(self, grid32):
        again = make_grid(32, 2.0 * np.pi)
        assert galerkin_space(grid32, CutoffLevel(3)) is \
            galerkin_space(again, CutoffLevel(3))
        assert galerkin_space(grid32, CutoffLevel(2)) is not \
            galerkin_space(grid32, CutoffLevel(3))

    @pytest.mark.parametrize("level", [4, 5])
    def test_covering_cube_is_the_identity(self, grid32, level):
        space = galerkin_space(grid32, CutoffLevel(level))
        assert space.covers and space.shape == (6, 32, 32, 32)
        data = to_spectral(random_field(grid32, seed=1)).data
        assert space.gather(data) is data
        assert space.scatter(data) is data

    @pytest.mark.parametrize("points, level", [(8, 1), (16, 2), (32, 3)])
    def test_scatter_of_gather_is_the_cube_cutoff(self, points, level):
        g = make_grid(points, 2.0 * np.pi)
        space = galerkin_space(g, CutoffLevel(level))
        uh = to_spectral(random_field(g, seed=2))
        packed = space.pack(uh)
        assert np.array_equal(space.scatter(packed.data),
                              sharp_cutoff(uh, CutoffLevel(level)).data)
        assert np.array_equal(space.gather(space.scatter(packed.data)),
                              packed.data)

    def test_non_cubic_box_keeps_the_cube(self):
        g = make_grid(16, 4.0 * np.pi)  # k = m/2: |m| <= 4 inside 2^1
        space = galerkin_space(g, CutoffLevel(1))
        uh = to_spectral(random_field(g, seed=3))
        assert space.shape == (6, 9, 9, 9)
        assert np.array_equal(space.scatter(space.pack(uh).data),
                              sharp_cutoff(uh, CutoffLevel(1)).data)


class TestPackedFields:
    def test_pack_keeps_own_fields_and_rejects_others(self, grid32):
        space = galerkin_space(grid32, CutoffLevel(3))
        packed = space.pack(to_spectral(random_field(grid32, seed=4)))
        assert space.pack(packed) is packed
        other = galerkin_space(grid32, CutoffLevel(2))
        with pytest.raises(UsageError):
            other.pack(packed)
        with pytest.raises(UsageError):
            space.pack(random_field(grid32, seed=4))  # physical
        with pytest.raises(UsageError):
            space.pack(to_spectral(random_field(make_grid(16, 2 * np.pi),
                                                seed=4)))

    def test_to_physical_scatters(self, grid32):
        space = galerkin_space(grid32, CutoffLevel(3))
        uh = to_spectral(random_field(grid32, seed=5))
        expected = to_physical(sharp_cutoff(uh, CutoffLevel(3)))
        assert np.array_equal(to_physical(space.pack(uh)).data, expected.data)

    def test_parseval_on_packed_coefficients(self, grid32):
        space = galerkin_space(grid32, CutoffLevel(3))
        u = to_spectral(random_field(grid32, seed=6))
        v = to_spectral(random_field(grid32, seed=7))
        pu, pv = space.pack(u), space.pack(v)
        cu, cv = sharp_cutoff(u, CutoffLevel(3)), sharp_cutoff(v, CutoffLevel(3))
        assert np.isclose(l2_norm(pu), l2_norm(cu), rtol=1e-14)
        assert np.isclose(inner_product(pu, pv), inner_product(cu, cv),
                          rtol=1e-13)
        with pytest.raises(UsageError):
            inner_product(pu, u)

    def test_packed_axes_are_in_fftfreq_order(self, grid32):
        space = galerkin_space(grid32, CutoffLevel(3))
        real = to_spectral(random_field(grid32, seed=8).with_data(
            random_field(grid32, seed=8).data.real))
        assert hermitian_defect(space.pack(real)) < 1e-13

    def test_packed_fields_are_not_checkpointed(self, grid32, tmp_path):
        space = galerkin_space(grid32, CutoffLevel(3))
        packed = space.pack(to_spectral(random_field(grid32, seed=9)))
        with pytest.raises(UsageError):
            write_checkpoint(packed, tmp_path / "x.mks")

    @pytest.mark.parametrize("op", [
        maxwell_apply, hodge_laplacian_apply, helmholtz_project,
        lambda f: maxwell_group(0.7, f),
        lambda f: smooth_cutoff(f, CutoffLevel(2)),
        lambda f: sharp_cutoff(f, CutoffLevel(2)),
    ])
    def test_diagonal_operators_commute_with_gather(self, grid32, op):
        space = galerkin_space(grid32, CutoffLevel(3))
        uh = to_spectral(random_field(grid32, seed=10))
        assert np.array_equal(op(space.pack(uh)).data,
                              space.gather(op(uh).data))


# every cutoff level up to the Nyquist wavenumber on each grid; the last one
# covers the grid
CUBE_CASES = [(n, level) for n in (8, 16, 32)
              for level in range(1, n.bit_length() - 1)]


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


class TestPrunedTransforms:
    """The packed transforms run single-axis passes over the lines that can
    hold a retained mode; they are bitwise the full-grid transforms around
    scatter and gather, zero signs included."""

    @pytest.mark.parametrize("n, level", CUBE_CASES)
    @pytest.mark.parametrize("paths", [None, 1, 2, 3])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=3, deadline=None)
    def test_equal_to_the_full_grid_transforms(self, n, level, paths, seed):
        space = galerkin_space(make_grid(n, 2.0 * np.pi), CutoffLevel(level))
        assert space.covers == (2**level >= n // 2)
        lead = (6,) if paths is None else (paths, 6)
        rng = np.random.default_rng(seed)

        def normal(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        for _ in range(2):  # the second pair runs on the first one's scratch
            packed = space.field(normal(lead + space.shape[1:]))
            assert _bits(to_physical(packed).data) == \
                _bits(ifft_array(space.scatter(packed.data)))
            u = Field6(space.grid, PHYSICAL, normal(lead + (n, n, n)))
            spectral = space.spectral(u)
            assert spectral.space is space
            assert _bits(spectral.data) == \
                _bits(space.gather(fft_array(u.data)))

    def test_spectral_takes_a_physical_field_on_its_grid(self, grid32):
        space = galerkin_space(grid32, CutoffLevel(3))
        with pytest.raises(UsageError):
            space.spectral(to_spectral(random_field(grid32, seed=11)))
        with pytest.raises(UsageError):
            space.spectral(random_field(make_grid(16, 2 * np.pi), seed=11))

