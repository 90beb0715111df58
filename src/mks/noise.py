"""Finite-dimensional Brownian driving noise and the gauge transform.

The driving noise is N scalar Brownian motions on a uniform time grid.
Refinement inserts Brownian-bridge midpoints and never touches existing
values, so dyadic step-size sweeps can share paths bitwise.  Streams are
keyed by (seed, path index, refinement level), which makes every value
reproducible independently of how the bundle was grown.

The gauge transform multiplies a state by exp(-i sum_j B_j(x) beta_j(t));
conjugating the free evolution by it produces the extra drift

    A(t) y = 1/2 sum_j B_j^2 y + sum_j i beta_j(t) (grad B_j x y2,
                                                    -grad B_j x y1)

together with the transformed current and additive noise amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .grid import (
    PHYSICAL,
    Field6,
    GridSpec,
    _require_representation,
    fft_array,
    ifft_array,
    zero_field,
)
from .operators import _nyquist_mask


class _TimeGrid:
    """The uniform time grid ``times`` of a bundle or a stack of bundles."""

    @property
    def steps(self):
        return len(self.times) - 1

    @property
    def horizon(self):
        return float(self.times[-1])


@dataclass(frozen=True, eq=False)
class BrownianBundle(_TimeGrid):
    """N scalar Brownian paths sampled on a uniform grid over [0, T]."""

    times: np.ndarray   # (K+1,), increasing, times[0] = 0
    values: np.ndarray  # (N, K+1), values[:, 0] = 0
    seed: int
    level: int = 0

    def __post_init__(self):
        self.times.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def count(self):
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class BundleStack(_TimeGrid):
    """The bundles of a batch of P paths on one time grid: ``values`` is
    (P, N, K+1), row p the bundle of path p, so ``values[..., k]`` reads
    beta(t_k) for a bundle and for a stack alike."""

    times: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, bundles) -> "BundleStack":
        times = bundles[0].times
        if any(not np.array_equal(b.times, times) for b in bundles[1:]):
            raise UsageError("the bundles of a batch must share one time grid")
        return cls(times=times, values=np.stack([b.values for b in bundles]))

    def take(self, rows) -> "BundleStack":
        """The stack of the given paths."""
        return BundleStack(times=self.times, values=self.values[rows])


def sample_brownian(count: int, horizon: float, steps: int, seed: int) -> BrownianBundle:
    """Fresh bundle; per-path streams keyed by (seed, path, level 0)."""
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    if not horizon > 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    times = np.linspace(0.0, horizon, steps + 1)
    dt = horizon / steps
    values = np.zeros((count, steps + 1))
    for j in range(count):
        rng = np.random.default_rng([seed, j, 0])
        values[j, 1:] = np.cumsum(np.sqrt(dt) * rng.standard_normal(steps))
    return BrownianBundle(times=times, values=values, seed=seed, level=0)


def refine_bundle(bundle: BrownianBundle) -> BrownianBundle:
    """Halve the step via Brownian-bridge midpoints; coarse values unchanged."""
    k = bundle.steps
    dt = bundle.times[1] - bundle.times[0]
    times = np.empty(2 * k + 1)
    times[::2] = bundle.times
    times[1::2] = 0.5 * (bundle.times[:-1] + bundle.times[1:])
    values = np.empty((bundle.count, 2 * k + 1))
    values[:, ::2] = bundle.values
    new_level = bundle.level + 1
    for j in range(bundle.count):
        rng = np.random.default_rng([bundle.seed, j, new_level])
        xi = rng.standard_normal(k)
        mid = 0.5 * (bundle.values[j, :-1] + bundle.values[j, 1:])
        values[j, 1::2] = mid + 0.5 * np.sqrt(dt) * xi
    return BrownianBundle(times=times, values=values, seed=bundle.seed,
                          level=new_level)


def restrict_bundle(bundle: BrownianBundle, stride: int) -> BrownianBundle:
    """Keep every stride-th grid point (inverse of repeated refinement)."""
    if bundle.steps % stride:
        raise UsageError(f"stride {stride} does not divide {bundle.steps} steps")
    return BrownianBundle(times=bundle.times[::stride].copy(),
                          values=bundle.values[:, ::stride].copy(),
                          seed=bundle.seed, level=bundle.level)


def freeze_bundle_at_exit(bundle: BrownianBundle, threshold: float):
    """Freeze all paths at the first time any |beta_i| exceeds the threshold.

    Returns (bundle, exit_index or None).  This realizes the stopping-time
    truncation as path freezing, so downstream statistics stay defined.
    """
    exceed = np.any(np.abs(bundle.values) > threshold, axis=0)
    if not np.any(exceed):
        return bundle, None
    k_exit = int(np.argmax(exceed))
    values = bundle.values.copy()
    values[:, k_exit:] = values[:, k_exit][:, None]
    frozen = BrownianBundle(times=bundle.times.copy(), values=values,
                            seed=bundle.seed, level=bundle.level)
    return frozen, k_exit


# -- time profiles and separable sources -------------------------------------

_TIME_PROFILES = ("const", "cos", "sin", "exp")


@dataclass(frozen=True)
class TimeProfile:
    """Closed-form scalar g(t)."""

    kind: str = "const"
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _TIME_PROFILES:
            raise ConfigurationError(f"unknown time profile {self.kind!r}")

    def value(self, t: float) -> float:
        if self.kind == "const":
            return 1.0
        if self.kind == "cos":
            return float(np.cos(self.rate * t))
        if self.kind == "sin":
            return float(np.sin(self.rate * t))
        return float(np.exp(-self.rate * t))


@dataclass(frozen=True)
class SeparableSource:
    """g(t) * shape(x); shape is a physical Field6."""

    shape: Field6
    profile: TimeProfile = TimeProfile()

    def at(self, t: float) -> np.ndarray:
        return self.profile.value(t) * self.shape.data


def zero_source(grid: GridSpec) -> SeparableSource:
    return SeparableSource(shape=zero_field(grid))


# -- noise structure ----------------------------------------------------------

def spectral_gradient(grid: GridSpec, scalar: np.ndarray) -> np.ndarray:
    """Gradient of a real scalar field by spectral differentiation; the
    Nyquist planes of i k are zeroed, so the gradient stays real.  A zero
    field costs no transform."""
    if not scalar.any():
        return np.zeros((3,) + scalar.shape)
    mask = _nyquist_mask(grid)
    hat = fft_array(scalar)
    g = ifft_array(np.stack([1j * (k * mask) * hat
                             for k in grid.k_components()]))
    return np.ascontiguousarray(g.real)


def band_limit_defect(grid: GridSpec, scalar: np.ndarray) -> float:
    """Relative spectral mass beyond half-Nyquist (per-axis cube); 0 for a
    zero field, which costs no transform."""
    if not scalar.any():
        return 0.0
    hat = fft_array(scalar)
    kx, ky, kz = grid.k_components()
    lim = 0.5 * grid.nyquist
    outside = ~((np.abs(kx) <= lim) & (np.abs(ky) <= lim) & (np.abs(kz) <= lim))
    total = np.linalg.norm(hat)
    if total == 0:
        return 0.0
    return float(np.linalg.norm(hat[outside]) / total)


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Coefficient fields of the driving noise and sources.

    B_fields are real multipliers with gradients precomputed spectrally;
    b_sources are the additive amplitudes, current is the forcing, u0 the
    initial state.
    """

    grid: GridSpec
    B_fields: tuple
    grad_B: tuple
    b_sources: tuple
    current: SeparableSource
    u0: Field6

    @property
    def count(self):
        return len(self.B_fields)


def make_noise_spec(grid: GridSpec, B_fields, b_sources, current,
                    u0) -> NoiseSpec:
    """Validate the coefficient fields and precompute grad B spectrally.
    The spec holds read-only views of the B fields (the caller's arrays
    stay writable) and read-only gradients."""
    B_fields = tuple(np.asarray(b, dtype=float).view() for b in B_fields)
    b_sources = tuple(b_sources)
    if len(B_fields) != len(b_sources):
        raise ConfigurationError(
            f"need one additive amplitude per multiplier field, got "
            f"{len(B_fields)} B and {len(b_sources)} b")
    n = grid.points_per_axis
    for j, b in enumerate(B_fields):
        if b.shape != (n, n, n):
            raise ConfigurationError(f"B_{j + 1} has shape {b.shape}")
        defect = band_limit_defect(grid, b)
        if defect > 1e-10:
            raise ConfigurationError(
                f"B_{j + 1} is not band-limited to half-Nyquist "
                f"(relative leakage {defect:.2e}); spectral differentiation "
                "of its gradient would ring")
    grad_B = tuple(spectral_gradient(grid, b) for b in B_fields)
    # read-only, as Field6 data is: one spec may serve every run of a config
    for array in B_fields + grad_B:
        array.setflags(write=False)
    return NoiseSpec(grid=grid, B_fields=B_fields, grad_B=grad_B,
                     b_sources=b_sources, current=current, u0=u0)


@dataclass(frozen=True, eq=False)
class GaugePhase:
    """exp(-i sum_j B_j(x) beta_j(t)) on the grid, plus the beta values used;
    one per path, with a leading path axis, for a stack of bundles."""

    values: np.ndarray  # (..., n, n, n), unimodular
    beta: np.ndarray    # (..., N)

    @property
    def of_fields(self) -> np.ndarray:
        """The phase shaped to multiply (..., 6, n, n, n) field data."""
        return np.expand_dims(self.values, -4)


def gauge_phase(spec: NoiseSpec, bundle, index: int) -> GaugePhase:
    """The phase at the grid time t_index of a bundle, or of every path of a
    ``BundleStack``."""
    beta = bundle.values[..., index]
    phase = np.zeros(beta.shape[:-1] + (spec.grid.points_per_axis,) * 3)
    for j, b_field in enumerate(spec.B_fields):
        phase = phase + b_field * beta[..., j, None, None, None]
    return GaugePhase(values=np.exp(-1j * phase), beta=beta.copy())


def apply_gauge(u: Field6, phase: GaugePhase, direction: str) -> Field6:
    _require_representation(u, PHYSICAL, "apply_gauge")
    if direction == "forward":
        return u.with_data(u.data * phase.of_fields)
    if direction == "inverse":
        return u.with_data(u.data * np.conj(phase.of_fields))
    raise UsageError(f"unknown gauge direction {direction!r}")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise cross product of a (3, ...) array with a (..., 3, n, n, n)
    one."""
    b0, b1, b2 = (b[..., i, :, :, :] for i in range(3))
    return np.stack([
        a[1] * b2 - a[2] * b1,
        a[2] * b0 - a[0] * b2,
        a[0] * b1 - a[1] * b0,
    ], axis=-4)


def cross_drift_apply(spec: NoiseSpec, beta: np.ndarray, y: Field6) -> np.ndarray:
    """sum_j i beta_j (grad B_j x y2, -grad B_j x y1); skew on L^2.

    A stack of fields takes one row of beta per path, (P, N).  A term whose
    beta_j is 0 is skipped, for that path alone."""
    out = np.zeros_like(y.data)
    for gb, b_val in zip(spec.grad_B, np.moveaxis(beta, -1, 0)):
        live = b_val != 0.0
        if not np.any(live):
            continue
        rows = ()
        if y.stacked:
            rows = (slice(None) if np.all(live) else np.flatnonzero(live),)
            b_val = b_val[rows + (None,) * 4]
        top, bottom = rows + (slice(0, 3),), rows + (slice(3, 6),)
        coef = 1j * b_val
        out[top] += coef * _cross(gb, y.data[bottom])
        out[bottom] -= coef * _cross(gb, y.data[top])
    return out
