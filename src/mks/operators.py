"""Spectral vector calculus and the free-evolution operators.

Everything here is diagonal per Fourier mode:

* curl, div, grad act via multiplication with i*k,
* the block operator m(u1, u2) = (curl u2, -curl u1) is skew-adjoint,
* the componentwise Laplacian equals grad div - curl curl blockwise and
  coincides with m^2 on divergence-free fields,
* the Leray/Helmholtz projection keeps u_hat(k) - k (k.u_hat)/|k|^2 and is
  the identity at k = 0 (constants are divergence-free on the torus),
* exp(t*m) rotates the divergence-free part with cos(|k| t) and
  sin(|k| t)/|k| blocks and leaves the gradient part untouched; in closed
  form its top block is c u1 + w k (k.u1) + i s k x u2 and its bottom block
  the same with u2 and -u1, with c = cos(|k| t), s = sin(|k| t)/|k| and
  w = (1 - c)/|k|^2 (0 at k = 0).

The multipliers of curl (i k) and of exp(tm) (c, w, k and i s k) are read
from contiguous complex tables of the mode shape, cached per owner of the
modes (and per t for exp(tm); curl caches a Galerkin space's only): a
product of two complex arrays of one shape runs as a plain loop, where a
broadcast real factor is cast on the fly.
Packed exp(tm) tables are gathered from the full-grid ones, so packed and
full-grid results agree bitwise.

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
from .multipliers import CutoffLevel, sharp_mask, smooth_mask

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


def _curl_tables(modes):
    """(i kx, i ky, i kz) of ``modes`` as contiguous complex tables of the
    mode shape."""
    shape = modes.k_squared().shape
    tables = tuple(np.ascontiguousarray(np.broadcast_to(1j * k, shape))
                   for k in modes.k_components())
    for table in tables:
        table.setflags(write=False)
    return tables


# the steps apply m to packed fields, so a Galerkin space's tables are kept;
# the full grid's are built per call (a once-per-spec check applies m there)
# and do not outlive it
_space_curl_tables = lru_cache(maxsize=16)(_curl_tables)


def curl(modes, u3: np.ndarray) -> np.ndarray:
    """(curl u)^(k) = i k x u_hat(k) on a 3-component spectral block (with
    any leading axes); ``modes`` is a GridSpec or a GalerkinSpace."""
    tables = _curl_tables if isinstance(modes, GridSpec) else \
        _space_curl_tables
    ikx, iky, ikz = tables(modes)
    a, b, c = (u3[..., i, :, :, :] for i in range(3))
    out = np.empty(u3.shape, np.complex128)
    tmp = np.empty_like(out[..., 0, :, :, :])
    for o, kj, vk, kk, vj in ((out[..., 0, :, :, :], iky, c, ikz, b),
                              (out[..., 1, :, :, :], ikz, a, ikx, c),
                              (out[..., 2, :, :, :], ikx, b, iky, a)):
        np.multiply(kj, vk, out=o)
        o -= np.multiply(kk, vj, out=tmp)
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


@lru_cache(maxsize=16)
def _group_tables(grid: GridSpec, space, t: float):
    """(c, w, kx, ky, kz, i s kx, i s ky, i s kz) for exp(t m) on the grid,
    or on a packed space (None for the full grid): contiguous complex tables
    of the mode shape, with c = cos(|k| t), s = sin(|k| t)/|k| and
    w = (1 - c)/|k|^2, 0 at k = 0.  A space gathers the grid's tables, so
    packed and full-grid results agree bitwise; only the space's are kept."""
    n = grid.points_per_axis
    kx, ky, kz = (np.broadcast_to(k, (n, n, n)) for k in grid.k_components())
    kabs = np.sqrt(kx**2 + ky**2 + kz**2)
    inv_kabs = np.zeros_like(kabs)
    nonzero = kabs > 0
    inv_kabs[nonzero] = 1.0 / kabs[nonzero]
    c = np.cos(kabs * t)
    # 1 - cos x = 2 sin^2(x/2), without the cancellation at small |k| t
    w = 2.0 * np.sin(0.5 * kabs * t)**2 * inv_kabs**2
    i_s = 1j * np.sin(kabs * t) * inv_kabs
    tables = []
    for a in (c, w, kx, ky, kz, i_s * kx, i_s * ky, i_s * kz):
        a = np.ascontiguousarray(a, dtype=np.complex128)
        if space is not None:
            a = space.gather(a)
        a.setflags(write=False)
        tables.append(a)
    return tuple(tables)


def maxwell_group(t: float, u: Field6) -> Field6:
    """Exact propagator exp(t*m), mode-wise, in closed form:

        top    = c u1 + w k (k . u1) + i s k x u2,
        bottom = c u2 + w k (k . u2) - i s k x u1,

    with c = cos(|k| t), s = sin(|k| t)/|k| and w = (1 - c)/|k|^2, so that
    the divergence-free part turns by cos(|k| t) I + sin(|k| t)/|k| * m and
    the gradient part and k = 0 are left as they are.  Each output component
    is written in place, with one component-sized scratch.
    """
    _require_representation(u, SPECTRAL, "maxwell_group")
    c, w, kx, ky, kz, sx, sy, sz = _group_tables(u.grid, u.space, float(t))
    data = u.data
    out = np.empty_like(data)
    tmp = np.empty_like(data[..., 0, :, :, :])
    for first, other, turn, back in ((0, 3, np.add, np.subtract),
                                     (3, 0, np.subtract, np.add)):
        u0, u1, u2 = (data[..., first + i, :, :, :] for i in range(3))
        v0, v1, v2 = (data[..., other + i, :, :, :] for i in range(3))
        o0, o1, o2 = (out[..., first + i, :, :, :] for i in range(3))
        # w (k . u) waits in the last output component until it is used
        np.multiply(kx, u0, out=o2)
        o2 += np.multiply(ky, u1, out=tmp)
        o2 += np.multiply(kz, u2, out=tmp)
        o2 *= w
        np.multiply(c, u0, out=o0)
        o0 += np.multiply(kx, o2, out=tmp)
        np.multiply(c, u1, out=o1)
        o1 += np.multiply(ky, o2, out=tmp)
        o2 *= kz
        o2 += np.multiply(c, u2, out=tmp)
        # i s k x v: added on the top block, subtracted on the bottom one
        for o, sj, vk, sk, vj in ((o0, sy, v2, sz, v1), (o1, sz, v0, sx, v2),
                                  (o2, sx, v1, sy, v0)):
            turn(o, np.multiply(sj, vk, out=tmp), out=o)
            back(o, np.multiply(sk, vj, out=tmp), out=o)
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
    # only this oracle needs it; `import mks.harness` stays light
    import scipy.linalg

    op = dense_operator(MAXWELL, grid)
    return scipy.linalg.expm(t * op.matrix)

