"""Sharp and smooth frequency cutoffs at dyadic levels.

Two sharp variants are provided deliberately:

* ``sharp_cutoff`` (the cube): zeroes every mode with any |k_i| > 2^n;
  this is the variant the time integrator projects with,
* ``radial_sharp_cutoff``: indicator of 1 + |k|^2 <= 2^n, the multiplier of
  the same quantity the smooth cutoff is built from, so the sandwich
  identities S_n P_n = P_n and P_n S_{n-1} = S_{n-1} hold exactly.

The smooth cutoff applies m_n(k) = sum_{l <= n} window(2^{-l} (1 + |k|^2))
componentwise; with the standard window this equals 1 for 1 + |k|^2 <= 2^n
and 0 for 1 + |k|^2 >= 2^{n+1}.

The cutoffs act on the modes a field holds: a packed field (see
``galerkin``) is multiplied by the masks' values on its retained modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError
from .grid import SPECTRAL, Field6, GridSpec, _require_representation, make_grid

MAX_LEVEL = 60  # 2^n stays an exact float and far inside its range


@dataclass(frozen=True)
class CutoffLevel:
    """Dyadic cutoff scale 2^n."""

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ConfigurationError(f"cutoff level must be >= 0, got {self.n}")
        if self.n > MAX_LEVEL:
            raise ConfigurationError(f"cutoff level {self.n} would overflow 2^n")

    @property
    def scale(self):
        return float(2**self.n)


def _bump(x):
    """exp(-1/((x - 1/2)(2 - x))) on (1/2, 2), zero outside."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > 0.5) & (x < 2.0)
    xi = x[inside]
    with np.errstate(over="ignore", under="ignore"):
        out[inside] = np.exp(-1.0 / ((xi - 0.5) * (2.0 - xi)))
    return out


def _dyadic_window(x):
    """bump(x) / sum_l bump(2^-l x): dyadic partition of unity by construction."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    positive = x > 0
    xp = x[positive]
    num = _bump(xp)
    l0 = np.floor(np.log2(xp))
    den = np.zeros_like(xp)
    for dl in (-1.0, 0.0, 1.0):
        den += _bump(xp * np.exp2(-(l0 + dl)))
    out[positive] = np.where(num > 0, num / np.where(den > 0, den, 1.0), 0.0)
    return out


@dataclass(frozen=True)
class WindowFunction:
    """Smooth profile with support in [1/2, 2] summing to 1 over dyadic scales."""

    profile: object  # callable array -> array

    def __call__(self, x):
        return self.profile(np.asarray(x, dtype=float))

    def partition_sum(self, x):
        """sum_l profile(2^-l x), evaluated over the contributing scales."""
        x = np.asarray(x, dtype=float)
        l0 = np.floor(np.log2(np.where(x > 0, x, 1.0)))
        total = np.zeros_like(x)
        for dl in (-1.0, 0.0, 1.0):
            total += self(x * np.exp2(-(l0 + dl)))
        return total


def standard_window() -> WindowFunction:
    return WindowFunction(profile=_dyadic_window)


def _window_sum_up_to(window: WindowFunction, level_n: int, x):
    """m_n(x) = sum_{l <= n} window(2^-l x); at most two scales contribute."""
    x = np.asarray(x, dtype=float)
    l0 = np.floor(np.log2(x))
    total = np.zeros_like(x)
    for dl in (-1.0, 0.0, 1.0):
        l = l0 + dl
        total += np.where(l <= level_n, window(x * np.exp2(-l)), 0.0)
    return total


@lru_cache(maxsize=64)
def _cached_masks(points_per_axis: int, box_length: float, n: int):
    grid = make_grid(points_per_axis, box_length)
    kx, ky, kz = grid.k_components()
    scale = float(2**n)
    cube = ((np.abs(kx) <= scale) & (np.abs(ky) <= scale)
            & (np.abs(kz) <= scale))
    one_plus_k2 = 1.0 + grid.k_squared()
    radial = one_plus_k2 <= scale
    smooth = _window_sum_up_to(standard_window(), n, one_plus_k2)
    return cube, radial, smooth


@lru_cache(maxsize=64)
def _cached_packed_masks(space, n: int):
    grid = space.grid
    return tuple(space.gather(mask) for mask in
                 _cached_masks(grid.points_per_axis, grid.box_length, n))


def _masks_of(u: Field6, level: CutoffLevel):
    """(cube, radial, smooth) masks on the modes ``u`` holds."""
    if u.space is not None:
        return _cached_packed_masks(u.space, level.n)
    return _cached_masks(u.grid.points_per_axis, u.grid.box_length, level.n)


def sharp_mask(grid: GridSpec, level: CutoffLevel) -> np.ndarray:
    """Cube indicator: all |k_i| <= 2^n."""
    return _cached_masks(grid.points_per_axis, grid.box_length, level.n)[0]


def radial_sharp_mask(grid: GridSpec, level: CutoffLevel) -> np.ndarray:
    """Radial indicator: 1 + |k|^2 <= 2^n."""
    return _cached_masks(grid.points_per_axis, grid.box_length, level.n)[1]


def smooth_mask(grid: GridSpec, level: CutoffLevel) -> np.ndarray:
    """Smooth multiplier values of m_n at 1 + |k|^2."""
    return _cached_masks(grid.points_per_axis, grid.box_length, level.n)[2]


def sharp_cutoff(u: Field6, level: CutoffLevel) -> Field6:
    """Cube cutoff: zeroes every mode with any |k_i| > 2^n."""
    _require_representation(u, SPECTRAL, "sharp_cutoff")
    return u.with_data(u.data * _masks_of(u, level)[0])


def radial_sharp_cutoff(u: Field6, level: CutoffLevel) -> Field6:
    """Radial sharp cutoff 1{1 + |k|^2 <= 2^n} (sandwich-check variant)."""
    _require_representation(u, SPECTRAL, "radial_sharp_cutoff")
    return u.with_data(u.data * _masks_of(u, level)[1])


def smooth_cutoff(u: Field6, level: CutoffLevel) -> Field6:
    """Smooth dyadic cutoff applied componentwise."""
    _require_representation(u, SPECTRAL, "smooth_cutoff")
    return u.with_data(u.data * _masks_of(u, level)[2])


def cutoff_sandwich_check(levelP: CutoffLevel, grid: GridSpec) -> dict:
    """Mode-by-mode check of S_n P_n = P_n and P_n S_{n-1} = S_{n-1}.

    Uses the radial sharp variant; returns the max violations and the max
    commutator defect between the smooth and sharp multipliers.
    """
    n = levelP.n
    p_n = radial_sharp_mask(grid, levelP).astype(float)
    s_n = smooth_mask(grid, levelP)
    if n >= 1:
        s_prev = smooth_mask(grid, CutoffLevel(n - 1))
    else:
        # level -1 multiplier: only scales l <= -1 contribute
        s_prev = _window_sum_up_to(standard_window(), -1, 1.0 + grid.k_squared())
    viol_sp = float(np.max(np.abs(s_n * p_n - p_n)))
    viol_ps = float(np.max(np.abs(p_n * s_prev - s_prev)))
    commute = float(np.max(np.abs(s_n * p_n - p_n * s_n)))
    return {
        "sn_pn_minus_pn": viol_sp,
        "pn_sprev_minus_sprev": viol_ps,
        "commutator": commute,
        "max_violation": max(viol_sp, viol_ps, commute),
    }
