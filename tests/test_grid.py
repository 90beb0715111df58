import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mks.errors import ConfigurationError, UsageError
from mks.grid import (
    CHECKPOINT_MAGIC,
    Field6,
    hermitian_defect,
    inner_product,
    l2_norm,
    lp_norm,
    make_grid,
    random_field,
    read_checkpoint,
    to_physical,
    to_spectral,
    write_atomic,
    write_checkpoint,
    zero_field,
)

from conftest import plane_wave


class TestMakeGrid:
    def test_wavenumbers_4_2pi(self):
        g = make_grid(4, 2 * np.pi)
        assert np.allclose(g.wavenumbers, [0.0, 1.0, -2.0, -1.0])

    def test_nyquist_8_unit_box(self):
        g = make_grid(8, 1.0)
        assert np.isclose(np.max(np.abs(g.wavenumbers)), 2 * np.pi * 4)
        # Nyquist entry carries the negative sign
        assert np.isclose(g.wavenumbers[4], -2 * np.pi * 4)

    @pytest.mark.parametrize("n", [6, 3, 2, 0, 12])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ConfigurationError):
            make_grid(n, 2 * np.pi)

    def test_rejects_bad_length(self):
        with pytest.raises(ConfigurationError):
            make_grid(8, 0.0)

    def test_deterministic(self):
        a = make_grid(8, 3.0)
        b = make_grid(8, 3.0)
        assert np.array_equal(a.wavenumbers, b.wavenumbers)
        assert a == b


def _dft_oracle(grid, data):
    """Direct O(n^2) DFT-matrix transform, unitary normalization."""
    n = grid.points_per_axis
    x = grid.axes()
    w1 = np.exp(-1j * np.outer(grid.wavenumbers, x)) / np.sqrt(n)
    out = np.tensordot(data, w1, axes=([1], [1]))          # c, y, z, kx
    out = np.tensordot(out, w1, axes=([1], [1]))           # c, z, kx, ky
    out = np.tensordot(out, w1, axes=([1], [1]))           # c, kx, ky, kz
    return out


class TestTransforms:
    def test_constant_concentrates_at_zero_mode(self, grid4):
        c = 2.5 - 1.0j
        f = zero_field(grid4)
        f = f.with_data(np.full_like(f.data, c))
        hat = to_spectral(f)
        n = grid4.points_per_axis
        assert np.isclose(hat.data[0, 0, 0, 0], c * n ** 1.5)
        away = hat.data.copy()
        away[:, 0, 0, 0] = 0
        assert np.max(np.abs(away)) < 1e-12

    def test_plane_wave_single_coefficient(self, grid4):
        f = plane_wave(grid4, (1, 0, 0), component=2)
        hat = to_spectral(f)
        nonzero = np.abs(hat.data) > 1e-10
        assert nonzero.sum() == 1
        assert nonzero[2, 1, 0, 0]

    def test_round_trip_matches_dft_matrix_oracle(self, grid4):
        f = random_field(grid4, seed=1)
        hat = to_spectral(f)
        oracle = _dft_oracle(grid4, f.data)
        assert np.max(np.abs(hat.data - oracle)) < 1e-12 * np.max(np.abs(oracle))
        back = to_physical(hat)
        assert np.max(np.abs(back.data - f.data)) < 1e-12 * np.max(np.abs(f.data))

    def test_wrong_representation_raises(self, grid4):
        f = random_field(grid4, seed=2)
        with pytest.raises(UsageError):
            to_physical(f)
        with pytest.raises(UsageError):
            to_spectral(to_spectral(f))

    @given(a=st.complex_numbers(max_magnitude=10, allow_nan=False),
           b=st.complex_numbers(max_magnitude=10, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        g = make_grid(4, 2 * np.pi)
        u = random_field(g, seed=3)
        v = random_field(g, seed=4)
        lhs = to_spectral(u.with_data(a * u.data + b * v.data))
        rhs = a * to_spectral(u).data + b * to_spectral(v).data
        scale = max(np.max(np.abs(rhs)), 1.0)
        assert np.max(np.abs(lhs.data - rhs)) <= 1e-12 * scale


class TestInnerProduct:
    def test_unit_plane_wave_gives_volume(self, grid4):
        f = plane_wave(grid4, (1, 1, 0))
        assert np.isclose(inner_product(f, f), grid4.volume)

    def test_zero(self, grid4):
        f = random_field(grid4, seed=5)
        assert inner_product(f, zero_field(grid4)) == 0

    def test_parseval(self, grid4):
        u = random_field(grid4, seed=6)
        v = random_field(grid4, seed=7)
        a = inner_product(u, v)
        b = inner_product(to_spectral(u), to_spectral(v))
        assert abs(a - b) <= 1e-12 * l2_norm(u) * l2_norm(v)

    def test_grid_mismatch(self, grid4, grid8):
        with pytest.raises(UsageError):
            inner_product(random_field(grid4, seed=1), random_field(grid8, seed=1))

    def test_representation_mismatch(self, grid4):
        u = random_field(grid4, seed=8)
        with pytest.raises(UsageError):
            inner_product(u, to_spectral(u))


class TestLpNorm:
    def test_constant_l2(self, grid4):
        f = zero_field(grid4)
        data = np.zeros_like(f.data)
        data[0] = 3.0  # pointwise C^6 norm is 3 everywhere
        f = f.with_data(data)
        assert np.isclose(lp_norm(f, 2), 3.0 * np.sqrt(grid4.volume))

    def test_max_norm_spike(self, grid4):
        f = zero_field(grid4)
        data = np.zeros_like(f.data)
        data[1, 2, 3, 1] = -4.0 + 3.0j  # magnitude 5
        f = f.with_data(data)
        assert np.isclose(lp_norm(f, np.inf), 5.0)

    def test_p4_matches_direct_sum(self, grid4):
        f = random_field(grid4, seed=9)
        mag = np.sqrt(np.sum(np.abs(f.data) ** 2, axis=0))
        direct = (grid4.cell_volume * np.sum(mag**4)) ** 0.25
        assert np.isclose(lp_norm(f, 4), direct, rtol=1e-13)

    def test_l2_consistency_with_inner_product(self, grid4):
        f = random_field(grid4, seed=10)
        assert np.isclose(lp_norm(f, 2) ** 2, inner_product(f, f).real,
                          rtol=1e-12)

    def test_spectral_rejected(self, grid4):
        with pytest.raises(UsageError):
            lp_norm(to_spectral(random_field(grid4, seed=11)), 2)


class TestHermitianSymmetry:
    def test_real_field_is_hermitian(self, grid8):
        rng = np.random.default_rng(0)
        n = grid8.points_per_axis
        data = rng.standard_normal((6, n, n, n)).astype(np.complex128)
        f = Field6(grid8, "physical", data, real_state=True)
        assert hermitian_defect(to_spectral(f)) < 1e-12

    def test_complex_field_is_not(self, grid8):
        f = random_field(grid8, seed=12)
        assert hermitian_defect(to_spectral(f)) > 1e-3


class TestCheckpoint:
    def test_round_trip(self, grid4, tmp_path):
        f = random_field(grid4, seed=13)
        path = tmp_path / "state.mks"
        write_checkpoint(f, path)
        g = read_checkpoint(path)
        assert g.grid == f.grid
        assert g.representation == f.representation
        assert np.array_equal(g.data, f.data)

    def test_layout(self, grid4, tmp_path):
        f = to_spectral(random_field(grid4, seed=14))
        path = tmp_path / "state.mks"
        write_checkpoint(f, path)
        raw = path.read_bytes()
        assert raw[:4] == CHECKPOINT_MAGIC
        n = int.from_bytes(raw[4:8], "little")
        assert n == 4
        # u32 + f64 + 2 * u8 header, then (re, im) f64 pairs, z-fastest
        header = 4 + 4 + 8 + 1 + 1
        assert len(raw) == header + 6 * n**3 * 16
        first = np.frombuffer(raw[header:header + 16], dtype="<f8")
        assert first[0] == f.data[0, 0, 0, 0].real
        assert first[1] == f.data[0, 0, 0, 0].imag
        second = np.frombuffer(raw[header + 16:header + 32], dtype="<f8")
        assert second[0] == f.data[0, 0, 0, 1].real  # z varies fastest

    def test_bad_magic(self, grid4, tmp_path):
        path = tmp_path / "junk.mks"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(UsageError):
            read_checkpoint(path)

    def _valid_bytes(self, grid4, tmp_path):
        path = tmp_path / "state.mks"
        write_checkpoint(random_field(grid4, seed=16), path)
        return path.read_bytes()

    def test_every_proper_prefix_rejected(self, grid4, tmp_path):
        raw = self._valid_bytes(grid4, tmp_path)
        path = tmp_path / "cut.mks"
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(UsageError):
                read_checkpoint(path)

    def test_trailing_byte_rejected(self, grid4, tmp_path):
        path = tmp_path / "long.mks"
        path.write_bytes(self._valid_bytes(grid4, tmp_path) + b"\x00")
        with pytest.raises(UsageError):
            read_checkpoint(path)

    @pytest.mark.parametrize("offset", [16, 17])  # representation, real flag
    def test_bad_tag_rejected(self, grid4, tmp_path, offset):
        raw = bytearray(self._valid_bytes(grid4, tmp_path))
        raw[offset] = 7
        path = tmp_path / "tag.mks"
        path.write_bytes(bytes(raw))
        with pytest.raises(UsageError):
            read_checkpoint(path)


class TestAtomicWrite:
    def test_failed_write_leaves_nothing(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(TypeError):
            write_atomic(target, b"header", None)  # fails after one chunk
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"previous")
        with pytest.raises(TypeError):
            write_atomic(target, b"header", None)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"previous"

    def test_mode_follows_umask(self, tmp_path):
        plain, atomic = tmp_path / "plain.bin", tmp_path / "atomic.bin"
        plain.write_bytes(b"data")
        write_atomic(atomic, b"data")
        assert atomic.stat().st_mode == plain.stat().st_mode

    def test_interrupted_checkpoint_leaves_nothing(self, grid4, tmp_path,
                                                   monkeypatch):
        def interrupted(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError):
            write_checkpoint(random_field(grid4, seed=17), tmp_path / "s.mks")
        assert list(tmp_path.iterdir()) == []


def test_field_shape_validation(grid4):
    with pytest.raises(UsageError):
        Field6(grid4, "physical", np.zeros((6, 4, 4, 2), dtype=np.complex128))
    with pytest.raises(UsageError):
        Field6(grid4, "elsewhere", np.zeros((6, 4, 4, 4), dtype=np.complex128))


def test_field_data_is_read_only(grid4):
    f = random_field(grid4, seed=15)
    with pytest.raises(ValueError):
        f.data[0, 0, 0, 0] = 1.0


SEAM_RUN = """
[grid]
points = 8
length = 6.283185307179586

[model]
q = 2.0
mode = strong
equation = tsee

[noise]
count = 1
B_1 = band-limited-random(seed=3, amplitude=0.2, max_mode=1)
b_1 = band-limited-random(seed=4, amplitude=0.1, max_mode=1) * cos(1.0)
J = band-limited-random(seed=5, amplitude=0.1, max_mode=1)
u0 = band-limited-random(seed=6, amplitude=0.5, max_mode=1)

[scheme]
type = lie_splitting
dt = 0.0625
cutoff = 2
horizon = 0.25
"""

_NUMPY_TRANSFORMS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                     "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft",
                     "ihfft")


def test_every_numpy_transform_goes_through_the_seam(monkeypatch):
    # build_runtime (band-limited profiles, spectral gradients, band-limit
    # checks) and run_path call numpy.fft only from fft_array/ifft_array
    import mks.grid
    from mks.config import build_runtime, parse_config
    from mks.noise import sample_brownian
    from mks.stepping import run_path

    counts = {"numpy": 0, "seam": 0}
    for name in _NUMPY_TRANSFORMS:
        original = getattr(np.fft, name)

        def numpy_counted(*args, _original=original, **kwargs):
            counts["numpy"] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, numpy_counted)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "mks" or key.startswith("mks."))]
    for name in ("fft_array", "ifft_array"):
        original = getattr(mks.grid, name)

        def seam_counted(*args, _original=original, **kwargs):
            counts["seam"] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, seam_counted)

    model = build_runtime(parse_config(SEAM_RUN))
    built = dict(counts)
    bundle = sample_brownian(1, model.horizon, model.steps, seed=7)
    run_path(model.spec, model.scheme, model.kernel, bundle)
    assert built["seam"] >= 5  # B_1: profile, band check, gradient; b_1, J, u0
    assert counts["seam"] > built["seam"]
    assert counts["numpy"] == counts["seam"]
