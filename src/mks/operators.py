"""Spectral vector calculus and the free-evolution operators.

Everything here is diagonal per Fourier mode:

* curl, div, grad act via multiplication with i*k,
* the block operator m(u1, u2) = (curl u2, -curl u1) is skew-adjoint,
* the componentwise Laplacian equals grad div - curl curl blockwise and
  coincides with m^2 on divergence-free fields,
* the Leray/Helmholtz projection keeps u_hat(k) - k (k.u_hat)/|k|^2 and is
  the identity at k = 0 (constants are divergence-free on the torus),
* exp(t*m) rotates the divergence-free part with cos(|k| t) and
  sin(|k| t)/|k| blocks and leaves the gradient part untouched.

All Field6-level operations demand the spectral representation and raise
UsageError otherwise, and act on the modes the field holds: every mode of
the grid, or the retained modes of a packed field (``Field6.modes`` owns the
wavenumber tables).  m, exp(tm) and the Laplacian also act on a stack of
fields (a leading path axis) mode by mode.  The raw-array helpers
(curl/div/grad) take that owner and expect spectral data by contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .grid import (
    SPECTRAL,
    Field6,
    GridSpec,
    _require_representation,
    to_physical,
    to_spectral,
)

MAXWELL = "maxwell"
HODGE_LAPLACIAN = "hodge_laplacian"
HELMHOLTZ = "helmholtz"
SHARP_CUTOFF = "sharp_cutoff"
SMOOTH_CUTOFF = "smooth_cutoff"

_DENSE_KINDS = (MAXWELL, HODGE_LAPLACIAN, HELMHOLTZ, SHARP_CUTOFF, SMOOTH_CUTOFF)
_DENSE_DIM_CAP = 6 * 8**3


def _nyquist_mask(grid: GridSpec):
    """Multiplier that is 0 on the three Nyquist planes, 1 elsewhere."""
    n = grid.points_per_axis
    m = np.ones(n)
    m[n // 2] = 0.0
    return m.reshape(n, 1, 1) * m.reshape(1, n, 1) * m.reshape(1, 1, n)


def curl(modes, u3: np.ndarray) -> np.ndarray:
    """(curl u)^(k) = i k x u_hat(k) on a 3-component spectral block (with
    any leading axes); ``modes`` is a GridSpec or a GalerkinSpace."""
    kx, ky, kz = modes.k_components()
    a, b, c = (u3[..., i, :, :, :] for i in range(3))
    out = np.empty_like(u3)
    out[..., 0, :, :, :] = 1j * (ky * c - kz * b)
    out[..., 1, :, :, :] = 1j * (kz * a - kx * c)
    out[..., 2, :, :, :] = 1j * (kx * b - ky * a)
    return out


def div(grid: GridSpec, u3: np.ndarray) -> np.ndarray:
    """(div u)^(k) = i k . u_hat(k)."""
    kx, ky, kz = grid.k_components()
    return 1j * (kx * u3[0] + ky * u3[1] + kz * u3[2])


def grad(grid: GridSpec, phi: np.ndarray) -> np.ndarray:
    """(grad phi)^(k) = i k phi_hat(k)."""
    kx, ky, kz = grid.k_components()
    return np.stack([1j * kx * phi, 1j * ky * phi, 1j * kz * phi])


def maxwell_apply(u: Field6) -> Field6:
    """Block map (u1, u2) -> (curl u2, -curl u1)."""
    _require_representation(u, SPECTRAL, "maxwell_apply")
    data = np.empty_like(u.data)
    top, bottom = data[..., :3, :, :, :], data[..., 3:, :, :, :]
    top[...] = curl(u.modes, u.block2)
    bottom[...] = curl(u.modes, u.block1)
    np.negative(bottom, out=bottom)
    return u.with_data(data)


def hodge_laplacian_apply(u: Field6) -> Field6:
    """Componentwise Laplacian: u_hat(k) -> -|k|^2 u_hat(k)."""
    _require_representation(u, SPECTRAL, "hodge_laplacian_apply")
    return u.with_data(-u.modes.k_squared() * u.data)


def helmholtz_project(u: Field6) -> Field6:
    """Orthogonal projection onto divergence-free fields, blockwise."""
    _require_representation(u, SPECTRAL, "helmholtz_project")
    kx, ky, kz = u.modes.k_components()
    k2 = u.modes.k_squared()
    inv_k2 = np.zeros_like(k2)
    nonzero = k2 > 0
    inv_k2[nonzero] = 1.0 / k2[nonzero]
    data = u.data.copy()
    for block in (data[:3], data[3:]):
        kdotu = kx * block[0] + ky * block[1] + kz * block[2]
        block[0] -= kx * kdotu * inv_k2
        block[1] -= ky * kdotu * inv_k2
        block[2] -= kz * kdotu * inv_k2
    return u.with_data(data)


@lru_cache(maxsize=32)
def _group_tables(grid: GridSpec, space, t: float):
    """(kx, ky, kz, 1/|k|^2, cos(|k| t), sin(|k| t)/|k|) for exp(t m) on the
    grid, or on a packed space (None for the full grid).  A space gathers the
    grid's tables, so packed and full-grid results agree bitwise."""
    if space is not None:
        full = _group_tables(grid, None, t)
        return space.k_components() + tuple(space.gather(a) for a in full[3:])
    kx, ky, kz = grid.k_components()
    k2 = kx**2 + ky**2 + kz**2
    kabs = np.sqrt(k2)
    inv_kabs = np.zeros_like(kabs)
    nonzero = kabs > 0
    inv_kabs[nonzero] = 1.0 / kabs[nonzero]
    inv_k2 = inv_kabs**2
    cos = np.cos(kabs * t)
    sinc = np.sin(kabs * t) * inv_kabs
    for table in (inv_k2, cos, sinc):
        table.setflags(write=False)
    return kx, ky, kz, inv_k2, cos, sinc


def maxwell_group(t: float, u: Field6) -> Field6:
    """Exact propagator exp(t*m), mode-wise.

    On the divergence-free part: cos(|k| t) I + sin(|k| t)/|k| * m.
    Identity on the gradient part and at k = 0.
    """
    _require_representation(u, SPECTRAL, "maxwell_group")
    kx, ky, kz, inv_k2, cos, sinc = _group_tables(u.grid, u.space, float(t))

    # split each block into gradient and divergence-free parts
    data = u.data
    grad = np.empty_like(data)
    for first in (0, 3):
        v0, v1, v2 = (data[..., first + i, :, :, :] for i in range(3))
        kdot = (kx * v0 + ky * v1 + kz * v2) * inv_k2
        for i, k in enumerate((kx, ky, kz)):
            np.multiply(k, kdot, out=grad[..., first + i, :, :, :])
    h = data - grad

    # grad + cos h + sinc m h, with m(a_h, b_h) = (i k x b_h, -i k x a_h)
    out = cos * h
    out += grad
    turn = curl(u.modes, h[..., 3:, :, :, :])
    turn *= sinc
    out[..., :3, :, :, :] += turn
    turn = curl(u.modes, h[..., :3, :, :, :])
    turn *= sinc
    out[..., 3:, :, :, :] -= turn
    return u.with_data(out)


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Explicit matrix acting on flattened physical-representation vectors.

    Flattening order is component-major, z-fastest (same as ``data.ravel()``
    and the checkpoint layout).  Used as a brute-force oracle on tiny grids.
    """

    grid: GridSpec
    kind: str
    matrix: np.ndarray


def _dft_matrix(grid: GridSpec) -> np.ndarray:
    """Unitary DFT matrix on one scalar component, built from first principles."""
    n = grid.points_per_axis
    x = grid.axes()
    k = grid.wavenumbers
    # one-dimensional unitary DFT: W[m, j] = exp(-i k_m x_j)/sqrt(n)
    w1 = np.exp(-1j * np.outer(k, x)) / np.sqrt(n)
    return np.kron(np.kron(w1, w1), w1)


def _mode_diagonals(grid: GridSpec):
    kx, ky, kz = grid.k_components()
    n = grid.points_per_axis
    shape = (n, n, n)
    return (np.broadcast_to(kx, shape).ravel(),
            np.broadcast_to(ky, shape).ravel(),
            np.broadcast_to(kz, shape).ravel())


def _cross_matrix(grid: GridSpec) -> np.ndarray:
    """Spectral-side curl: 3x3 block of diagonals for i k x."""
    kx, ky, kz = _mode_diagonals(grid)
    z = np.zeros_like(kx)
    rows = [
        [z, -kz, ky],
        [kz, z, -kx],
        [-ky, kx, z],
    ]
    blocks = [[1j * np.diag(entry) for entry in row] for row in rows]
    return np.block(blocks)


def dense_operator(kind: str, grid: GridSpec,
                   level: int | None = None) -> DenseOperator:
    """Explicit matrix oracle for the fast spectral operators.

    ``level`` is required for the cutoffs.  Guarded to at most 6*8^3
    unknowns.
    """
    if kind not in _DENSE_KINDS:
        raise ConfigurationError(f"unknown dense operator kind {kind!r}")
    dim = 6 * grid.points_per_axis**3
    if dim > _DENSE_DIM_CAP:
        raise ConfigurationError(
            f"dense operator dimension {dim} exceeds cap {_DENSE_DIM_CAP}")

    m = grid.points_per_axis**3
    w = _dft_matrix(grid)
    w3 = np.kron(np.eye(3), w)
    kx, ky, kz = _mode_diagonals(grid)
    k2 = kx**2 + ky**2 + kz**2

    if kind == MAXWELL:
        c = w3.conj().T @ _cross_matrix(grid) @ w3
        zero = np.zeros_like(c)
        matrix = np.block([[zero, c], [-c, zero]])
    elif kind == HODGE_LAPLACIAN:
        spec = np.diag(np.tile(-k2, 6))
        w6 = np.kron(np.eye(6), w)
        matrix = w6.conj().T @ spec @ w6
    elif kind == HELMHOLTZ:
        inv_k2 = np.where(k2 > 0, 1.0 / np.where(k2 > 0, k2, 1.0), 0.0)
        comps = (kx, ky, kz)
        proj = np.block([
            [np.diag((1.0 if i == j else 0.0) - comps[i] * comps[j] * inv_k2)
             for j in range(3)]
            for i in range(3)
        ])
        p3 = w3.conj().T @ proj @ w3
        zero = np.zeros_like(p3)
        matrix = np.block([[p3, zero], [zero, p3]])
    else:
        if level is None:
            raise ConfigurationError(f"dense operator {kind!r} needs a level")
        from .multipliers import CutoffLevel, sharp_mask, smooth_mask

        lev = level if isinstance(level, CutoffLevel) else CutoffLevel(level)
        if kind == SHARP_CUTOFF:
            mult = sharp_mask(grid, lev).astype(float).ravel()
        else:
            mult = smooth_mask(grid, lev).ravel()
        spec = np.diag(np.tile(mult, 6))
        w6 = np.kron(np.eye(6), w)
        matrix = w6.conj().T @ spec @ w6

    assert matrix.shape == (dim, dim) and m * 6 == dim
    return DenseOperator(grid=grid, kind=kind, matrix=matrix)


def dense_group_matrix(t: float, grid: GridSpec) -> np.ndarray:
    """Matrix exponential oracle for exp(t*m) via scaling-and-squaring."""
    import scipy.linalg  # only this oracle needs it; `import mks` stays light

    op = dense_operator(MAXWELL, grid)
    return scipy.linalg.expm(t * op.matrix)

