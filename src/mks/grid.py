"""Periodic-torus discretization and six-component fields.

Conventions used throughout the package:

* grid points x_j = j*L/n on [0, L)^3, n points per axis,
* wavenumbers in fftfreq order, k_m = 2*pi*m_signed/L with the Nyquist
  index n/2 assigned the negative value -pi*n/L,
* unitary FFT normalization (``norm="ortho"``), so the quadrature-weighted
  inner products agree in both representations (Parseval),
* field data has shape (6, n, n, n), components 0-2 are the electric-type
  block, components 3-5 the magnetic-type block.
"""

from __future__ import annotations

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
    def n(self):
        return self.points_per_axis

    @property
    def cell_volume(self):
        return (self.box_length / self.points_per_axis) ** 3

    @property
    def volume(self):
        return self.box_length**3

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

    Immutable after construction; ``real_state`` marks fields that represent
    physically real states (their spectral data must be Hermitian-symmetric,
    and derivative operators zero the Nyquist planes for them).
    """

    grid: GridSpec
    representation: str
    data: np.ndarray
    real_state: bool = False

    def __post_init__(self):
        n = self.grid.points_per_axis
        if self.representation not in (PHYSICAL, SPECTRAL):
            raise UsageError(f"unknown representation {self.representation!r}")
        if self.data.shape != (6, n, n, n):
            raise UsageError(
                f"expected data shape (6, {n}, {n}, {n}), got {self.data.shape}"
            )
        if self.data.dtype != np.complex128:
            object.__setattr__(self, "data", self.data.astype(np.complex128))
        self.data.setflags(write=False)

    @property
    def block1(self):
        """Electric-type components (3, n, n, n)."""
        return self.data[:3]

    @property
    def block2(self):
        """Magnetic-type components (3, n, n, n)."""
        return self.data[3:]

    def with_data(self, data, representation=None):
        rep = self.representation if representation is None else representation
        return Field6(self.grid, rep, data, self.real_state)


def zero_field(grid: GridSpec, representation: str = PHYSICAL, real_state=False) -> Field6:
    n = grid.points_per_axis
    return Field6(grid, representation, np.zeros((6, n, n, n), dtype=np.complex128),
                  real_state)


def random_field(grid: GridSpec, seed, representation: str = PHYSICAL,
                 scale: float = 1.0) -> Field6:
    """Componentwise complex standard normal field (test/profile helper)."""
    rng = np.random.default_rng(seed)
    n = grid.points_per_axis
    shape = (6, n, n, n)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Field6(grid, representation, data)


def _require_representation(f: Field6, representation: str, what: str):
    if f.representation != representation:
        raise UsageError(f"{what} requires a {representation} field, got "
                         f"{f.representation}")


# -- the FFT seam: every transform in the package goes through this pair ------

_FIELD_AXES = (1, 2, 3)


def fft_array(data: np.ndarray, axes=None) -> np.ndarray:
    """Unitary forward DFT of an array over ``axes`` (all axes when None)."""
    return np.fft.fftn(data, axes=axes, norm="ortho")


def ifft_array(data: np.ndarray, axes=None) -> np.ndarray:
    """Unitary inverse DFT of an array over ``axes`` (all axes when None)."""
    return np.fft.ifftn(data, axes=axes, norm="ortho")


def to_spectral(f: Field6) -> Field6:
    _require_representation(f, PHYSICAL, "to_spectral")
    return Field6(f.grid, SPECTRAL, fft_array(f.data, _FIELD_AXES), f.real_state)


def to_physical(f: Field6) -> Field6:
    _require_representation(f, SPECTRAL, "to_physical")
    return Field6(f.grid, PHYSICAL, ifft_array(f.data, _FIELD_AXES), f.real_state)


def inner_product(u: Field6, v: Field6) -> complex:
    """Quadrature inner product <u, v> = (L/n)^3 sum u * conj(v).

    Same weight in both representations; Parseval makes them agree.
    """
    if u.grid != v.grid:
        raise UsageError("inner_product requires fields on the same grid")
    if u.representation != v.representation:
        raise UsageError("inner_product requires matching representations")
    return complex(u.grid.cell_volume * np.vdot(v.data, u.data))


def pointwise_norm(u: Field6) -> np.ndarray:
    """Euclidean norm in C^6 at every grid point, shape (n, n, n)."""
    return np.sqrt(np.sum(np.abs(u.data) ** 2, axis=0))


def lp_norm(u: Field6, p) -> float:
    """L^p norm with the C^6 pointwise norm; p = inf gives the max."""
    _require_representation(u, PHYSICAL, "lp_norm")
    mag = pointwise_norm(u)
    if p == np.inf:
        return float(mag.max())
    p = float(p)
    if p < 1.0:
        raise UsageError(f"lp_norm requires p >= 1, got {p}")
    return float((u.grid.cell_volume * np.sum(mag**p)) ** (1.0 / p))


def l2_norm(u: Field6) -> float:
    """L^2 norm, valid in either representation (Parseval)."""
    return float(np.sqrt(u.grid.cell_volume) * np.linalg.norm(u.data))


def hermitian_defect(f: Field6) -> float:
    """Max |u_hat(k) - conj(u_hat(-k))| over modes of a spectral field."""
    _require_representation(f, SPECTRAL, "hermitian_defect")
    rev = f.data[:, ::-1, ::-1, ::-1]
    rev = np.roll(rev, 1, axis=(1, 2, 3))
    return float(np.max(np.abs(f.data - np.conj(rev))))


# -- checkpoint format (shared repo-wide) -----------------------------------
#
# little-endian: magic "MKS1", u32 points_per_axis, f64 box_length,
# u8 representation tag (0 physical, 1 spectral), u8 real_state flag,
# then 6*n^3 complex values as (f64 re, f64 im) pairs in component-major,
# z-fastest order.

_HEADER = struct.Struct("<4sIdBB")


def write_atomic(path, *chunks: bytes):
    """Write the chunks to a temp file beside ``path``, then rename it over
    ``path``: readers see the old file or the whole new one, never a part.
    The file gets the mode a plain ``open(path, "wb")`` would (umask)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        f.grid.points_per_axis,
        f.grid.box_length,
        _REP_TAGS[f.representation],
        1 if f.real_state else 0,
    )
    write_atomic(path, header,
                 np.ascontiguousarray(f.data).astype("<c16").tobytes())


def read_checkpoint(path) -> Field6:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise UsageError(f"checkpoint {path} is truncated: {len(raw)} bytes, "
                         f"the header alone takes {_HEADER.size}")
    magic, n, box_length, tag, real_flag = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise UsageError(f"bad checkpoint magic {magic!r}")
    if tag not in _TAG_REPS:
        raise UsageError(f"checkpoint {path} has bad representation tag {tag}")
    if real_flag not in (0, 1):
        raise UsageError(f"checkpoint {path} has bad real-state flag {real_flag}")
    expected = _HEADER.size + 6 * n**3 * 16
    if len(raw) != expected:
        raise UsageError(f"checkpoint {path} holds {len(raw)} bytes; a 6x{n}^3 "
                         f"field takes {expected}")
    grid = make_grid(n, box_length)
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    data = data.astype(np.complex128).reshape(6, n, n, n)
    return Field6(grid, _TAG_REPS[tag], data, bool(real_flag))
