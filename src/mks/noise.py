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

import struct
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
    l2_norm,
    to_physical,
    to_spectral,
    write_atomic,
)

BUNDLE_MAGIC = b"BRW1"
_BUNDLE_HEADER = struct.Struct("<4sIIqdI")


@dataclass(frozen=True, eq=False)
class BrownianBundle:
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

    @property
    def steps(self):
        return len(self.times) - 1

    @property
    def horizon(self):
        return float(self.times[-1])

    def index_of(self, t: float) -> int:
        """Grid index of time t; UsageError when t is off the grid."""
        dt = self.times[1] - self.times[0] if self.steps else 1.0
        idx = int(round(t / dt))
        if idx < 0 or idx > self.steps or abs(self.times[idx] - t) > 1e-9 * max(1.0, self.horizon):
            raise UsageError(f"time {t} is not on the bundle grid")
        return idx

    def increments(self) -> np.ndarray:
        """(N, K) forward increments."""
        return np.diff(self.values, axis=1)


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


def save_bundle(bundle: BrownianBundle, path):
    header = _BUNDLE_HEADER.pack(BUNDLE_MAGIC, bundle.count, bundle.steps,
                                 bundle.seed, bundle.horizon, bundle.level)
    write_atomic(path, header, bundle.times.astype("<f8").tobytes(),
                 np.ascontiguousarray(bundle.values).astype("<f8").tobytes())


def load_bundle(path) -> BrownianBundle:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _BUNDLE_HEADER.size:
        raise UsageError(f"bundle {path} is truncated: {len(raw)} bytes, the "
                         f"header alone takes {_BUNDLE_HEADER.size}")
    magic, count, steps, seed, _horizon, level = _BUNDLE_HEADER.unpack_from(raw)
    if magic != BUNDLE_MAGIC:
        raise UsageError(f"bad bundle magic {magic!r}")
    expected = _BUNDLE_HEADER.size + 8 * (count + 1) * (steps + 1)
    if len(raw) != expected:
        raise UsageError(f"bundle {path} holds {len(raw)} bytes; {count} paths "
                         f"of {steps} steps take {expected}")
    payload = np.frombuffer(raw, dtype="<f8", offset=_BUNDLE_HEADER.size)
    times = payload[:steps + 1].copy()
    values = payload[steps + 1:].copy().reshape(count, steps + 1)
    return BrownianBundle(times=times, values=values, seed=seed, level=level)


# -- time profiles and separable sources -------------------------------------

_TIME_PROFILES = ("const", "cos", "sin", "exp")


@dataclass(frozen=True)
class TimeProfile:
    """Closed-form scalar g(t) with analytic derivative."""

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

    def derivative(self, t: float) -> float:
        if self.kind == "const":
            return 0.0
        if self.kind == "cos":
            return float(-self.rate * np.sin(self.rate * t))
        if self.kind == "sin":
            return float(self.rate * np.cos(self.rate * t))
        return float(-self.rate * np.exp(-self.rate * t))


@dataclass(frozen=True)
class SeparableSource:
    """g(t) * shape(x) with analytic g'; shape is a physical Field6."""

    shape: Field6
    profile: TimeProfile = TimeProfile()

    def at(self, t: float) -> np.ndarray:
        return self.profile.value(t) * self.shape.data

    def rate_at(self, t: float) -> np.ndarray:
        return self.profile.derivative(t) * self.shape.data

    def l2_series_squared(self, times: np.ndarray) -> np.ndarray:
        base = l2_norm(self.shape) ** 2
        return np.array([self.profile.value(t) ** 2 for t in times]) * base


def zero_source(grid: GridSpec) -> SeparableSource:
    from .grid import zero_field

    return SeparableSource(shape=zero_field(grid))


# -- noise structure ----------------------------------------------------------

def spectral_gradient(grid: GridSpec, scalar: np.ndarray) -> np.ndarray:
    """Gradient of a real scalar field by spectral differentiation."""
    from .operators import grad as spectral_grad

    hat = fft_array(scalar)
    g = ifft_array(spectral_grad(grid, hat, zero_nyquist=True), axes=(1, 2, 3))
    return np.ascontiguousarray(g.real)


def band_limit_defect(grid: GridSpec, scalar: np.ndarray, fraction: float = 0.5) -> float:
    """Relative spectral mass beyond fraction*Nyquist (per-axis cube)."""
    hat = fft_array(scalar)
    kx, ky, kz = grid.k_components()
    lim = fraction * grid.nyquist
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

    def b_source(self, i: int) -> SeparableSource:
        return self.b_sources[i]


def make_noise_spec(grid: GridSpec, B_fields, b_sources, current, u0,
                    band_limit_tol: float = 1e-10) -> NoiseSpec:
    """Validate the coefficient fields and precompute grad B spectrally."""
    B_fields = tuple(np.asarray(b, dtype=float) for b in B_fields)
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
        if defect > band_limit_tol:
            raise ConfigurationError(
                f"B_{j + 1} is not band-limited to half-Nyquist "
                f"(relative leakage {defect:.2e}); spectral differentiation "
                "of its gradient would ring")
    grad_B = tuple(spectral_gradient(grid, b) for b in B_fields)
    return NoiseSpec(grid=grid, B_fields=B_fields, grad_B=grad_B,
                     b_sources=b_sources, current=current, u0=u0)


@dataclass(frozen=True, eq=False)
class GaugePhase:
    """exp(-i sum_j B_j(x) beta_j(t)) on the grid, plus the beta values used."""

    values: np.ndarray  # (n, n, n), unimodular
    beta: np.ndarray    # (N,)
    time: float


def gauge_phase(spec: NoiseSpec, bundle: BrownianBundle, t: float) -> GaugePhase:
    idx = bundle.index_of(t)
    beta = bundle.values[:, idx]
    phase = np.zeros(spec.B_fields[0].shape if spec.count else
                     (spec.grid.points_per_axis,) * 3)
    for b_field, b_val in zip(spec.B_fields, beta):
        phase = phase + b_field * b_val
    return GaugePhase(values=np.exp(-1j * phase), beta=beta.copy(), time=t)


def apply_gauge(u: Field6, phase: GaugePhase, direction: str = "forward") -> Field6:
    _require_representation(u, PHYSICAL, "apply_gauge")
    if direction == "forward":
        return u.with_data(u.data * phase.values)
    if direction == "inverse":
        return u.with_data(u.data * np.conj(phase.values))
    raise UsageError(f"unknown gauge direction {direction!r}")


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Componentwise cross product of (3, ...) arrays."""
    return np.stack([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def cross_drift_apply(spec: NoiseSpec, beta: np.ndarray, y: Field6) -> np.ndarray:
    """sum_j i beta_j (grad B_j x y2, -grad B_j x y1); skew on L^2."""
    out = np.zeros_like(y.data)
    for gb, b_val in zip(spec.grad_B, beta):
        if b_val == 0.0:
            continue
        out[:3] += 1j * b_val * _cross(gb, y.block2)
        out[3:] -= 1j * b_val * _cross(gb, y.block1)
    return out


def gauge_conjugation_defect(spec: NoiseSpec, bundle: BrownianBundle,
                             t: float, y: Field6) -> float:
    """L^2 defect of exp(-iPhi) m(exp(iPhi) y) - m y - cross-term drift.

    The product-rule identity behind the whole transform; should vanish to
    spectral-differentiation accuracy for band-limited B_j.
    """
    from .operators import maxwell_apply

    phase = gauge_phase(spec, bundle, t)
    lifted = apply_gauge(y, phase, "inverse")  # multiply by exp(+iPhi)
    m_lifted = to_physical(maxwell_apply(to_spectral(lifted)))
    left = apply_gauge(m_lifted, phase, "forward").data
    my = to_physical(maxwell_apply(to_spectral(y))).data
    expected = cross_drift_apply(spec, bundle.values[:, bundle.index_of(t)], y)
    defect = left - my - expected
    return l2_norm(y.with_data(defect))
