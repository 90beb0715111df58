"""Retarded material law (G * u)(t) and the fixed-point windowing driver.

G acts as a space-constant 6x6 real matrix multiplier.  The convolution is
the trapezoidal rule on the integrator's uniform history grid (O(dt^2) for
smooth integrands).  For the exponential kernel G(t) = a e^{-rt} C the
trapezoid sum is carried forward instead of re-summed: ``History`` keeps

    H_0 = u_0 / 2,    H_{k+1} = e^{-r dt} H_k + u_{k+1},

so (G * u)(t_k) = a dt C (H_k - u_k / 2), the trapezoid sum exactly in exact
arithmetic, at O(1) work and storage per step.  Its time derivative uses
G' = -r G:

    d/dt (G * u)(t) = G(0) u(t) + integral_0^t G'(t - s) u(s) ds
                    = a C u(t) - r (G * u)(t).

Both act on the six components only, so they commute with the FFT: the
stepper keeps a ``History`` of spectral states and reads the spectral memory
term, the Picard driver keeps physical ones.

``TABLE`` kernels have no recursion; no config builds them, and the direct
trapezoid sum over a table lives in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, UsageError
from .grid import Field6

ZERO = "zero"
EXPONENTIAL = "exponential"
TABLE = "table"


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Memory kernel G(t): zero, amplitude*exp(-rate*t)*coupling, or a table."""

    form: str = ZERO
    amplitude: float = 0.0
    rate: float = 0.0
    coupling: np.ndarray | None = None       # 6x6 real, defaults to identity
    table_times: np.ndarray | None = None    # increasing sample times
    table_values: np.ndarray | None = None   # (m, 6, 6)

    def __post_init__(self):
        if self.form not in (ZERO, EXPONENTIAL, TABLE):
            raise ConfigurationError(f"unknown kernel form {self.form!r}")
        if self.form == EXPONENTIAL and self.coupling is None:
            object.__setattr__(self, "coupling", np.eye(6))
        if self.form == TABLE:
            if self.table_times is None or self.table_values is None:
                raise ConfigurationError("table kernel needs times and values")
            if not np.all(np.isfinite(self.table_values)):
                raise ConfigurationError("table kernel values must be finite")

    @property
    def is_zero(self):
        return self.form == ZERO or (self.form == EXPONENTIAL and self.amplitude == 0.0)

    def matrix_at(self, t: float) -> np.ndarray:
        if self.form == ZERO:
            return np.zeros((6, 6))
        if self.form == EXPONENTIAL:
            return self.amplitude * np.exp(-self.rate * t) * self.coupling
        idx = np.clip(np.searchsorted(self.table_times, t), 1,
                      len(self.table_times) - 1)
        t0, t1 = self.table_times[idx - 1], self.table_times[idx]
        w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        return (1 - w) * self.table_values[idx - 1] + w * self.table_values[idx]

    def derivative_at(self, t: float) -> np.ndarray:
        if self.form == ZERO:
            return np.zeros((6, 6))
        if self.form == EXPONENTIAL:
            return -self.rate * self.amplitude * np.exp(-self.rate * t) * self.coupling
        raise UsageError("table kernels do not support the analytic derivative")

    def l1_norm(self, horizon: float) -> float:
        """integral_0^T of the spectral operator norm of G(t)."""
        if self.form == ZERO:
            return 0.0
        if self.form == EXPONENTIAL:
            op = float(np.linalg.norm(self.coupling, 2)) * abs(self.amplitude)
            if self.rate == 0.0:
                return op * horizon
            return op * (1.0 - np.exp(-self.rate * horizon)) / self.rate
        times = self.table_times
        norms = [np.linalg.norm(v, 2) for v in self.table_values]
        return float(np.trapezoid(norms, times))


def exponential_kernel(amplitude: float, rate: float,
                       coupling: np.ndarray | None = None) -> KernelSpec:
    return KernelSpec(form=EXPONENTIAL, amplitude=amplitude, rate=rate,
                      coupling=coupling)


@dataclass
class History:
    """Carried trapezoid sum of a uniformly spaced state record.

    Single writer (the stepper).  Appended states wait in ``pending`` until
    the next read folds them into ``carried`` (H_k, folded with ``rate``);
    only the latest state and the carried sum outlive a read.  ``len`` is
    the number of states appended.
    """

    dt: float
    count: int = 0
    t_last: float = 0.0
    latest: Field6 | None = None
    pending: list = field(default_factory=list)
    carried: np.ndarray | None = None
    rate: float | None = None

    def append(self, t: float, state: Field6):
        if self.count:
            gap = t - self.t_last
            if abs(gap - self.dt) > 1e-9 * max(1.0, self.dt):
                raise UsageError(
                    f"history spacing {gap} does not match dt {self.dt}")
        self.t_last = float(t)
        self.latest = state
        self.pending.append(state.data)
        self.count += 1

    def __len__(self):
        return self.count

    def copy(self) -> "History":
        """An independent History that continues from this one's state."""
        carried = None if self.carried is None else self.carried.copy()
        return replace(self, pending=list(self.pending), carried=carried)

    def fold(self, rate: float) -> np.ndarray:
        """Fold the pending states into H_k with decay e^{-rate dt}; returns H_k."""
        if self.rate is not None and rate != self.rate:
            raise UsageError(
                f"history was folded with rate {self.rate}, read with {rate}")
        self.rate = rate
        decay = np.exp(-rate * self.dt)
        for data in self.pending:
            if self.carried is None:
                self.carried = 0.5 * data
            else:
                self.carried *= decay
                self.carried += data
        self.pending.clear()
        return self.carried


def _apply_matrix(g: np.ndarray, data: np.ndarray) -> np.ndarray:
    return np.einsum("ab,b...->a...", g, data)


def _exponential_convolution(h: History, kernel: KernelSpec,
                             t: float) -> np.ndarray:
    """a dt C (H_k - u_k / 2): the trapezoid of the exponential kernel at t_k."""
    if not h.count:
        raise UsageError("the memory law needs at least the t = 0 state")
    if abs(h.t_last - t) > 1e-9 * max(1.0, abs(t)):
        raise UsageError(f"t = {t} must be the latest history time {h.t_last}")
    if kernel.form == TABLE:
        raise UsageError("table kernels have no recursive memory law")
    u = h.latest.data
    if kernel.is_zero:
        return np.zeros_like(u)
    carried = h.fold(kernel.rate)
    return kernel.amplitude * h.dt * _apply_matrix(kernel.coupling,
                                                   carried - 0.5 * u)


def convolve_history(h: History, kernel: KernelSpec, t: float) -> Field6:
    """Trapezoidal quadrature of integral_0^t G(t - s) u(s) ds, O(1) per step."""
    conv = _exponential_convolution(h, kernel, t)
    return h.latest.with_data(conv)


def convolution_derivative(h: History, kernel: KernelSpec, t: float) -> Field6:
    """G(0) u(t) + trapezoid of G'(t - s) u(s) = a C u(t) - r (G * u)(t)."""
    conv = _exponential_convolution(h, kernel, t)
    out = _apply_matrix(kernel.matrix_at(0.0), h.latest.data) - kernel.rate * conv
    return h.latest.with_data(out)


def contraction_step_length(g_l1: float, lipschitz_noise: float, horizon: float,
                            burkholder: float = 2.0) -> float:
    """Largest dyadic fraction T0 = T/2^m with kappa(T0) <= 1/2.

    kappa(T0) = (T0 g_l1^2 / 2) exp(2 (1 + 2 Ctil^2 + C^2) T0) with
    C the noise Lipschitz constant and Ctil = burkholder * C the
    Burkholder-side constant (so the noise contribution drops when C = 0).
    Uses the squared ||G||_{L^1} form.
    """
    if g_l1 < 0 or lipschitz_noise < 0 or burkholder < 0:
        raise ConfigurationError("contraction constants must be nonnegative")
    if not horizon > 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if g_l1 == 0.0:
        return horizon
    c = lipschitz_noise
    ctil = burkholder * lipschitz_noise
    rate = 2.0 * (1.0 + 2.0 * ctil**2 + c**2)

    def kappa(t0):
        return 0.5 * t0 * g_l1**2 * np.exp(rate * t0)

    t0 = horizon
    for _ in range(200):
        if kappa(t0) <= 0.5:
            return t0
        t0 *= 0.5
    raise NumericalError("contraction window underflow; kernel norm too large")


def picard_solve(window, initial_guess, step, tol: float, max_iter: int = 50,
                 distance=None):
    """Iterate v -> step(v) to a fixed point on one window.

    ``step`` solves the memory-frozen equation given the input trajectory
    (its G * v is computed from v).  ``distance`` measures the sup-in-time
    L^2 gap between successive iterates; geometric decay is expected on
    admissible windows.  Returns (fixed point, iterations, gap history).
    """
    if distance is None:
        from .stepping import trajectory_sup_distance

        distance = trajectory_sup_distance
    t_a, t_b = window
    if not t_b > t_a:
        raise UsageError(f"empty window {window}")
    v = initial_guess
    gaps = []
    for iteration in range(1, max_iter + 1):
        w = step(v)
        gap = distance(w, v)
        gaps.append(gap)
        v = w
        if gap <= tol:
            return v, iteration, gaps
    raise NumericalError(
        f"picard iteration did not contract on window {window}: gaps {gaps[-3:]}"
        " (window too long or constants wrong)")
