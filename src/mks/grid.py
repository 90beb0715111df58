"""Periodic-torus discretization and six-component fields.

Conventions used throughout the package:

* grid points x_j = j*L/n on [0, L)^3, n points per axis,
* wavenumbers in fftfreq order, k_m = 2*pi*m_signed/L with the Nyquist
  index n/2 assigned the negative value -pi*n/L,
* unitary FFT normalization (``norm="ortho"``), so the quadrature-weighted
  inner products agree in both representations (Parseval),
* field data has shape (6, n, n, n), components 0-2 are the electric-type
  block, components 3-5 the magnetic-type block; a stack of P paths' fields
  has a leading path axis, (P, 6, n, n, n).  Transforms and pointwise maps
  act on every path at once; each reduction (norms, inner products) reduces
  one path at a time through ``per_path``, so a path gets the same floats
  alone and in any stack.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, UsageError

PHYSICAL = "physical"
SPECTRAL = "spectral"

CHECKPOINT_MAGIC = b"MKS1"
_REP_TAGS = {PHYSICAL: 0, SPECTRAL: 1}
_TAG_REPS = {v: k for k, v in _REP_TAGS.items()}


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Uniform periodic grid on [0, L)^3 with precomputed wavenumber table."""

    points_per_axis: int
    box_length: float
    wavenumbers: np.ndarray  # shape (n,), fftfreq order

    def __post_init__(self):
        self.wavenumbers.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, GridSpec):
            return NotImplemented
        return (
            self.points_per_axis == other.points_per_axis
            and self.box_length == other.box_length
        )

    def __hash__(self):
        return hash((self.points_per_axis, self.box_length))

    @property
    def cell_volume(self):
        return (self.box_length / self.points_per_axis) ** 3

    @property
    def nyquist(self):
        """Largest resolved |k| = pi*n/L."""
        return np.pi * self.points_per_axis / self.box_length

    def k_components(self):
        """Broadcastable (kx, ky, kz) with shapes (n,1,1), (1,n,1), (1,1,n)."""
        k = self.wavenumbers
        n = self.points_per_axis
        return k.reshape(n, 1, 1), k.reshape(1, n, 1), k.reshape(1, 1, n)

    def k_squared(self):
        kx, ky, kz = self.k_components()
        return kx**2 + ky**2 + kz**2

    def axes(self):
        """Physical coordinates along one axis, shape (n,)."""
        n = self.points_per_axis
        return np.arange(n) * (self.box_length / n)


def make_grid(points_per_axis: int, box_length: float) -> GridSpec:
    """Build a GridSpec; n must be a power of two >= 4, L > 0."""
    n = int(points_per_axis)
    if n < 4 or (n & (n - 1)) != 0:
        raise ConfigurationError(
            f"points_per_axis must be a power of two >= 4, got {points_per_axis}"
        )
    if not box_length > 0:
        raise ConfigurationError(f"box_length must be positive, got {box_length}")
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n) / float(box_length)
    return GridSpec(points_per_axis=n, box_length=float(box_length), wavenumbers=k)


@dataclass(frozen=True, eq=False)
class Field6:
    """Six-component complex field, physical or spectral representation.

    A spectral field with a ``space`` (a ``galerkin.GalerkinSpace``) holds
    only the coefficients of the modes that space retains; without one it
    holds every mode of the grid.  ``data`` may carry a leading path axis
    (a stack of P fields, one per path).  Immutable after construction.
    """

    grid: GridSpec
    representation: str
    data: np.ndarray
    space: object = None

    def __post_init__(self):
        n = self.grid.points_per_axis
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise UsageError(f"unknown representation {self.representation!r}")
        if self.space is not None and self.representation != SPECTRAL:
            raise UsageError("only spectral fields can be packed")
        shape = (6, n, n, n) if self.space is None else self.space.shape
        if self.data.shape[-4:] != shape or self.data.ndim > 5:
            raise UsageError(
                f"expected data shape {shape} or (P,) + {shape}, got "
                f"{self.data.shape}")
        if self.data.dtype != np.complex128:
            object.__setattr__(self, "data", self.data.astype(np.complex128))
        self.data.setflags(write=False)

    @property
    def stacked(self):
        """True when the data carries a leading path axis."""
        return self.data.ndim == 5

    @property
    def block1(self):
        """Electric-type components (..., 3, n, n, n)."""
        return self.data[..., :3, :, :, :]

    @property
    def block2(self):
        """Magnetic-type components (..., 3, n, n, n)."""
        return self.data[..., 3:, :, :, :]

    @property
    def modes(self):
        """The owner of the data's wavenumber tables: the space, else the grid."""
        return self.grid if self.space is None else self.space

    def with_data(self, data):
        return Field6(self.grid, self.representation, data, self.space)


def zero_field(grid: GridSpec) -> Field6:
    n = grid.points_per_axis
    return Field6(grid, PHYSICAL, np.zeros((6, n, n, n), dtype=np.complex128))


def random_field(grid: GridSpec, seed, scale: float = 1.0) -> Field6:
    """Componentwise complex standard normal field (test/profile helper)."""
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    shape = (6, n, n, n)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Field6(grid, PHYSICAL, data)


def _require_representation(f: Field6, representation: str, what: str):
    if f.representation != representation:
        raise UsageError(f"{what} requires a {representation} field, got "
                         f"{f.representation}")


# -- the FFT seam: every transform in the package goes through this pair or --
# -- the pruned passes below, and every kernel call is made here -------------
#
# scipy's compiled pocketfft kernel, loaded from its file: the scipy.fft
# package would also import scipy.special, numpy.f2py and numpy.testing, about
# 0.35 s on a 2-core x86-64 host and most of `import mks.harness`.  The call
# ``c2c(a, axes, forward, 1, None, 1)`` is the one scipy.fft.fftn/ifftn(
# norm="ortho") ends in (norm 1 is "ortho", no output buffer, one thread:
# worker processes already use the cores), so the transforms are bitwise
# scipy's.  The kernel reads None as every axis and wraps negative axes
# itself, and takes real input down its symmetric path, so real data passes
# through uncast.


def _load_pocketfft():
    """scipy's pypocketfft extension module; find_spec runs no scipy code."""
    scipy = importlib.util.find_spec("scipy")
    folders = [] if scipy is None else scipy.submodule_search_locations
    files = [Path(folder, "fft", "_pocketfft", "pypocketfft" + suffix)
             for folder in folders
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((f for f in files if f.is_file()), None)
    if path is None:
        raise ImportError("mks needs scipy>=1.10 (see pyproject.toml): its FFT "
                          "kernel scipy/fft/_pocketfft/pypocketfft was not found")
    loader = importlib.machinery.ExtensionFileLoader("pypocketfft", str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader("pypocketfft", loader))
    loader.exec_module(module)
    return module


_c2c = _load_pocketfft().c2c
_FIELD_AXES = (-3, -2, -1)


def fft_array(data: np.ndarray) -> np.ndarray:
    """Unitary forward DFT of an array over its last three axes."""
    return _c2c(data, _FIELD_AXES, True, 1, None, 1)


def ifft_array(data: np.ndarray) -> np.ndarray:
    """Unitary inverse DFT of an array over its last three axes."""
    return _c2c(data, _FIELD_AXES, False, 1, None, 1)


def to_spectral(f: Field6) -> Field6:
    _require_representation(f, PHYSICAL, "to_spectral")
    return Field6(f.grid, SPECTRAL, fft_array(f.data))


def to_physical(f: Field6) -> Field6:
    """Inverse transform; a packed field transforms through its space."""
    _require_representation(f, SPECTRAL, "to_physical")
    data = (ifft_array(f.data) if f.space is None
            else f.space.physical(f.data))
    return Field6(f.grid, PHYSICAL, data)


# -- pruned passes: the transforms of the coefficients on a cube of modes ----
#
# Coefficients that vanish outside the cube of fftfreq indices |i| <= r
# (r < n/2) are held as (..., m, m, m), m = 2r + 1, each axis in fftfreq
# order.  Their transforms over the last three axes run as pocketfft runs the
# full-grid ones: one unscaled single-axis pass per axis, -3 then -2 then -1,
# with scipy's ortho factor (norm_fct: 1/sqrt(n^3) in long double, rounded
# to double) applied to the real and imaginary parts right after the first
# pass.  Each pass covers only the lines that can hold a retained mode, and
# every retained line is the line of the full transform, so the results are
# bitwise those of ifft_array/fft_array on the full grid (at 32^3 with r = 8:
# 289 + 544 + 1024 of the 3072 lines).  The two intermediate arrays come from
# ``cube_scratch`` and a call overwrites them; it allocates its output and,
# forward, the full-grid result of the first pass, which covers every line.


def _ortho_factor(n: int) -> float:
    return float(1 / np.sqrt(np.longdouble(n) ** 3))


def cube_scratch(count: int, n: int, m: int) -> tuple:
    """The two intermediate arrays of a cube transform of ``count`` fields
    (the product of the leading axes) of m^3 modes on an n^3 grid."""
    return (np.empty(count * n * m * m, np.complex128),
            np.empty(count * n * n * m, np.complex128))


def _along(axis: int, index: slice) -> tuple:
    """``index`` on ``axis`` (-3, -2 or -1) and every other axis whole."""
    return (Ellipsis, index) + (slice(None),) * (-1 - axis)


def _spread(cube: np.ndarray, full: np.ndarray, axis: int):
    """The cube's indices along ``axis`` put at their places on the full
    axis, zeros between."""
    n, r = full.shape[axis], cube.shape[axis] // 2
    full[_along(axis, slice(0, r + 1))] = cube[_along(axis, slice(0, r + 1))]
    full[_along(axis, slice(r + 1, n - r))] = 0.0
    full[_along(axis, slice(n - r, n))] = cube[_along(axis, slice(r + 1, None))]


def _keep(full: np.ndarray, cube: np.ndarray, axis: int):
    """The cube's indices along ``axis`` taken from the full axis."""
    n, r = full.shape[axis], cube.shape[axis] // 2
    cube[_along(axis, slice(0, r + 1))] = full[_along(axis, slice(0, r + 1))]
    cube[_along(axis, slice(r + 1, None))] = full[_along(axis, slice(n - r, n))]


def ifft_cube(data: np.ndarray, n: int, scratch: tuple) -> np.ndarray:
    """ifft_array over the last three axes of the n^3 grid coefficients that
    are ``data`` on the cube and zero outside it."""
    lead, m = data.shape[:-3], data.shape[-1]
    first = scratch[0].reshape(lead + (n, m, m))
    second = scratch[1].reshape(lead + (n, n, m))
    out = np.empty(lead + (n, n, n), np.complex128)
    _spread(data, first, -3)
    _c2c(first, (-3,), False, 0, first, 1)
    parts = first.view(np.float64)
    parts *= _ortho_factor(n)
    _spread(first, second, -2)
    _c2c(second, (-2,), False, 0, second, 1)
    _spread(second, out, -1)
    return _c2c(out, (-1,), False, 0, out, 1)


def fft_cube(data: np.ndarray, m: int, scratch: tuple) -> np.ndarray:
    """The cube of m^3 modes of fft_array over the last three axes."""
    lead, n = data.shape[:-3], data.shape[-1]
    first = scratch[1].reshape(lead + (m, n, n))
    second = scratch[0].reshape(lead + (m, m, n))
    out = np.empty(lead + (m, m, m), np.complex128)
    _keep(_c2c(data, (-3,), True, 0, None, 1), first, -3)
    parts = first.view(np.float64)
    parts *= _ortho_factor(n)
    _c2c(first, (-2,), True, 0, first, 1)
    _keep(first, second, -2)
    _c2c(second, (-1,), True, 0, second, 1)
    _keep(second, out, -1)
    return out


def per_path(reduce, *arrays, ndim: int = 4):
    """``reduce`` applied path by path: arrays of ``ndim`` dimensions are one
    path's, one more is a stack of paths (an unstacked array is shared by
    every path).  Returns reduce's value for unstacked arguments, else an
    array of one value per path.  Every reduction meets the path axis here,
    so a path reduces its own contiguous slice alone and in any stack."""
    stacks = [a for a in arrays if a.ndim > ndim]
    if not stacks:
        return reduce(*arrays)
    count = len(stacks[0])
    rows = [a if a.ndim > ndim else (a,) * count for a in arrays]
    return np.array([reduce(*slices) for slices in zip(*rows)])


def inner_product(u: Field6, v: Field6):
    """Quadrature inner product <u, v> = (L/n)^3 sum u * conj(v).

    Same weight in both representations; Parseval makes them agree.  A
    complex, or one per path when either field is a stack.
    """
    if u.grid != v.grid:
        raise UsageError("inner_product requires fields on the same grid")
    if u.representation != v.representation:
        raise UsageError("inner_product requires matching representations")
    if u.data.shape[-4:] != v.data.shape[-4:]:
        raise UsageError("inner_product requires fields on the same modes")
    weight = u.grid.cell_volume
    return per_path(lambda a, b: complex(weight * np.vdot(b, a)),
                    u.data, v.data)


def pointwise_norm(u: Field6) -> np.ndarray:
    """Euclidean norm in C^6 at every grid point, shape (..., n, n, n)."""
    return np.sqrt(np.sum(np.abs(u.data) ** 2, axis=-4))


def lp_norm(u: Field6, p, magnitude: np.ndarray | None = None):
    """L^p norm with the C^6 pointwise norm; p = inf gives the max.  A float,
    or one per path for a stack.  ``magnitude`` is pointwise_norm(u) when
    the caller has it."""
    _require_representation(u, PHYSICAL, "lp_norm")
    mag = pointwise_norm(u) if magnitude is None else magnitude
    if p == np.inf:
        return per_path(lambda m: float(m.max()), mag, ndim=3)
    p = float(p)
    if p < 1.0:
        raise UsageError(f"lp_norm requires p >= 1, got {p}")
    weight = u.grid.cell_volume
    return per_path(lambda m: float((weight * np.sum(m**p)) ** (1.0 / p)),
                    mag, ndim=3)


def l2_norm(u: Field6):
    """L^2 norm, valid in either representation (Parseval); a float, or one
    per path for a stack."""
    weight = np.sqrt(u.grid.cell_volume)
    return per_path(lambda a: float(weight * np.linalg.norm(a)), u.data)


# -- checkpoint format (shared repo-wide) -----------------------------------
#
# little-endian: magic "MKS1", u32 points_per_axis, f64 box_length,
# u8 representation tag (0 physical, 1 spectral), u8 flag (written as 0;
# 0 and 1 are accepted on read and ignored), then 6*n^3 complex values as
# (f64 re, f64 im) pairs in component-major, z-fastest order.

_HEADER = struct.Struct("<4sIdBB")


def write_atomic(path, *chunks):
    """Write the chunks (bytes-like: bytes or contiguous arrays) to a temp
    file beside ``path``, then rename it over
    ``path``: readers see the old file or the whole new one, never a part.
    The file gets the mode a plain ``open(path, "wb")`` would (umask).  The
    directory must exist."""
    path = Path(path)
    tmp = path.parent / f".tmp-{path.name}.{os.urandom(6).hex()}"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_checkpoint(f: Field6, path):
    if f.space is not None:
        raise UsageError("checkpoints hold full-grid fields, not packed ones")
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        f.grid.points_per_axis,
        f.grid.box_length,
        _REP_TAGS[f.representation],
        0,
    )
    write_atomic(path, header, np.ascontiguousarray(f.data, dtype="<c16"))


def read_checkpoint(path) -> Field6:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise UsageError(f"checkpoint {path} is truncated: {len(raw)} bytes, "
                         f"the header alone takes {_HEADER.size}")
    magic, n, box_length, tag, flag = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise UsageError(f"bad checkpoint magic {magic!r}")
    if tag not in _TAG_REPS:
        raise UsageError(f"checkpoint {path} has bad representation tag {tag}")
    if flag not in (0, 1):
        raise UsageError(f"checkpoint {path} has bad flag byte {flag}")
    expected = _HEADER.size + 6 * n**3 * 16
    if len(raw) != expected:
        raise UsageError(f"checkpoint {path} holds {len(raw)} bytes; a 6x{n}^3 "
                         f"field takes {expected}")
    grid = make_grid(n, box_length)
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    data = data.astype(np.complex128).reshape(6, n, n, n)
    return Field6(grid, _TAG_REPS[tag], data)
