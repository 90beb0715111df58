"""The Galerkin coefficient space: the modes on the range of the cube cutoff.

The truncated dynamics live on the range of P_n, the modes with every
|k_i| <= 2^n.  Along one axis those are the fftfreq indices 0..M and
n-M..n-1, two contiguous ranges, and in that order they are the fftfreq
order of a (2M+1)-point axis.  A ``GalerkinSpace`` stores the coefficients
of those modes only, shape (6, m, m, m) with m = 2M+1, and is the one place
that decides which modes those are:

* ``gather`` keeps the retained modes of a full-grid spectral array; it is
  P_n followed by packing, so it replaces the P_n mask multiply,
* ``scatter`` puts packed coefficients into zeros on the full grid,
* ``k_components``/``k_squared`` are the wavenumber tables of the retained
  modes, so every diagonal multiplier acts on packed data as it stands.

When the cube covers the grid (2^n at or above the Nyquist wavenumber)
every mode is retained: the packed array is the full array, and gather and
scatter return their input without a copy.  Spaces are cached per
(grid, level), like the cutoff masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .grid import SPECTRAL, Field6, GridSpec, _require_representation, make_grid
from .multipliers import CutoffLevel


@dataclass(frozen=True, eq=False)
class GalerkinSpace:
    """Coefficients on the modes of one grid inside a cube |k_i| <= 2^n."""

    grid: GridSpec
    retained: int  # M: the largest retained |fftfreq index| on an axis
    covers: bool
    wavenumbers: np.ndarray  # (2M+1,) or (n,) when covering, fftfreq order

    @property
    def modes_per_axis(self):
        return len(self.wavenumbers)

    @property
    def shape(self):
        m = self.modes_per_axis
        return (6, m, m, m)

    def k_components(self):
        """Broadcastable (kx, ky, kz) of the retained modes."""
        k = self.wavenumbers
        m = len(k)
        return k.reshape(m, 1, 1), k.reshape(1, m, 1), k.reshape(1, 1, m)

    def k_squared(self):
        kx, ky, kz = self.k_components()
        return kx**2 + ky**2 + kz**2

    def _ranges(self):
        n, r = self.grid.points_per_axis, self.retained
        return ((slice(0, r + 1), slice(0, r + 1)),
                (slice(n - r, n), slice(r + 1, 2 * r + 1)))

    def _blocks(self):
        """(full-grid slices, packed slices) of the eight corner blocks over
        the last three axes."""
        for bx in self._ranges():
            for by in self._ranges():
                for bz in self._ranges():
                    yield ((Ellipsis, bx[0], by[0], bz[0]),
                           (Ellipsis, bx[1], by[1], bz[1]))

    def gather(self, data: np.ndarray) -> np.ndarray:
        """The retained modes of a full-grid array (last three axes)."""
        if self.covers:
            return data
        out = np.empty(data.shape[:-3] + (self.modes_per_axis,) * 3,
                       dtype=data.dtype)
        for full, packed in self._blocks():
            out[packed] = data[full]
        return out

    def scatter(self, data: np.ndarray) -> np.ndarray:
        """Packed coefficients placed into zeros on the full grid."""
        if self.covers:
            return data
        n = self.grid.points_per_axis
        out = np.zeros(data.shape[:-3] + (n, n, n), dtype=data.dtype)
        for full, packed in self._blocks():
            out[full] = data[packed]
        return out

    def field(self, data: np.ndarray) -> Field6:
        """Packed coefficients as a spectral Field6 of this space."""
        return Field6(self.grid, SPECTRAL, data, space=self)

    def pack(self, f: Field6) -> Field6:
        """P_n of a spectral field, packed; a field of this space as it is."""
        _require_representation(f, SPECTRAL, "GalerkinSpace.pack")
        if f.space is self:
            return f
        if f.space is not None or f.grid != self.grid:
            raise UsageError("pack needs a full-grid spectral field on the "
                             "space's own grid")
        return self.field(self.gather(f.data))


@lru_cache(maxsize=64)
def _cached_space(points_per_axis: int, box_length: float, n: int):
    grid = make_grid(points_per_axis, box_length)
    k = grid.wavenumbers
    kept = np.abs(k) <= CutoffLevel(n).scale
    if kept.all():
        return GalerkinSpace(grid, points_per_axis // 2, True, k)
    retained = int(np.count_nonzero(kept[:points_per_axis // 2]) - 1)
    wavenumbers = np.concatenate([k[:retained + 1], k[points_per_axis - retained:]])
    wavenumbers.setflags(write=False)
    return GalerkinSpace(grid, retained, False, wavenumbers)


def galerkin_space(grid: GridSpec, level: CutoffLevel) -> GalerkinSpace:
    """The coefficient space of the cube cutoff at ``level`` on ``grid``."""
    return _cached_space(grid.points_per_axis, grid.box_length, level.n)
