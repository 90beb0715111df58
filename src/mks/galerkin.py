"""The Galerkin coefficient space: the modes on the range of the cube cutoff.

The truncated dynamics live on the range of P_n, the modes with every
|k_i| <= 2^n.  Along one axis those are the fftfreq indices 0..M and
n-M..n-1, two contiguous ranges, and in that order they are the fftfreq
order of a (2M+1)-point axis.  A ``GalerkinSpace`` stores the coefficients
of those modes only, shape (6, m, m, m) with m = 2M+1, and is the one place
that decides which modes those are:

* ``physical`` transforms packed coefficients to the full grid and
  ``spectral`` a physical field to its packed coefficients (P_n of the
  transform, so no mask multiply is left).  Both run the pruned passes of
  ``grid.ifft_cube``/``grid.fft_cube``, bitwise equal to scatter plus the
  full-grid inverse and to the full-grid forward plus gather, on two scratch
  arrays held per (n, m, number of fields) in a small cache,
* ``gather`` keeps the retained modes of a full-grid spectral array: ``pack``
  of a full-grid field (a start state handed to ``run_paths``) and the
  packed multiplier tables; ``scatter`` puts packed coefficients into zeros
  on the full grid, for the checks that compare against full-grid results,
* ``k_components``/``k_squared`` are the wavenumber tables of the retained
  modes, so every diagonal multiplier acts on packed data as it stands.

When the cube covers the grid (2^n at or above the Nyquist wavenumber)
every mode is retained: the packed array is the full array, gather and
scatter return their input without a copy, and the transforms are the
full-grid ones.  Spaces are cached per (grid, level), like the cutoff masks;
``cube_space`` builds the space of any index cube (the band-limited random
profiles draw on one).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .grid import (
    PHYSICAL,
    SPECTRAL,
    Field6,
    GridSpec,
    _require_representation,
    cube_scratch,
    fft_cube,
    ifft_array,
    ifft_cube,
    make_grid,
    to_spectral,
)
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

    def physical(self, data: np.ndarray) -> np.ndarray:
        """The full-grid inverse transform of packed coefficients."""
        if self.covers:
            return ifft_array(data)
        return ifft_cube(data, self.grid.points_per_axis,
                         self._scratch(data.shape[:-3]))

    def spectral(self, f: Field6) -> Field6:
        """P_n of the transform of a physical field, packed: pack of
        to_spectral, with only the retained modes computed."""
        _require_representation(f, PHYSICAL, "GalerkinSpace.spectral")
        if f.grid != self.grid:
            raise UsageError("spectral needs a field on the space's own grid")
        if self.covers:
            return self.field(to_spectral(f).data)
        return self.field(fft_cube(f.data, self.modes_per_axis,
                                   self._scratch(f.data.shape[:-3])))

    def _scratch(self, lead: tuple) -> tuple:
        return _cached_scratch(self.grid.points_per_axis, self.modes_per_axis,
                               int(np.prod(lead)))

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


# a run transforms one or two shapes of fields (the path-independent pieces
# and the batch); spaces of a study's other levels and batch sizes evict them.
# Every transform of a shape overwrites the same arrays, so two transforms
# must not run at once (the package steps one thread per process)
@lru_cache(maxsize=4)
def _cached_scratch(points_per_axis: int, modes_per_axis: int, count: int):
    return cube_scratch(count, points_per_axis, modes_per_axis)


def cube_space(grid: GridSpec, retained: int) -> GalerkinSpace:
    """The space of the modes with every |fftfreq index| <= ``retained``; from
    n/2 on it covers the grid."""
    n = grid.points_per_axis
    k = grid.wavenumbers
    if 2 * retained >= n:
        return GalerkinSpace(grid, n // 2, True, k)
    wavenumbers = np.concatenate([k[:retained + 1], k[n - retained:]])
    wavenumbers.setflags(write=False)
    return GalerkinSpace(grid, retained, False, wavenumbers)


@lru_cache(maxsize=64)
def _cached_space(points_per_axis: int, box_length: float, n: int):
    grid = make_grid(points_per_axis, box_length)
    kept = np.abs(grid.wavenumbers) <= CutoffLevel(n).scale
    # kept indices 0..M of the non-negative half, Nyquist (n/2) included
    return cube_space(grid,
                      int(np.count_nonzero(kept[:points_per_axis // 2 + 1])) - 1)


def galerkin_space(grid: GridSpec, level: CutoffLevel) -> GalerkinSpace:
    """The coefficient space of the cube cutoff at ``level`` on ``grid``."""
    return _cached_space(grid.points_per_axis, grid.box_length, level.n)
