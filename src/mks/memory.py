"""Retarded material law (G * u)(t) and the fixed-point windowing driver.

G acts as a space-constant 6x6 real matrix multiplier, applied as one real
matrix product per path: the complex components, viewed as six rows of
interleaved real and imaginary parts, times the coupling.  The convolution is
the trapezoidal rule on the integrator's uniform history grid (O(dt^2) for
smooth integrands).  For the exponential kernel G(t) = a e^{-rt} C the
trapezoid sum is carried forward instead of re-summed: a ``History`` is
built with its kernel and folds each state as it is appended,

    H_0 = u_0 / 2,    H_{k+1} = e^{-r dt} H_k + u_{k+1},

so (G * u)(t_k) = a dt C (H_k - u_k / 2), the trapezoid sum exactly in exact
arithmetic, at O(1) work and storage per step.  The record has no clock of
its own: its k-th state is the state at t_k of the integrator's grid.

The convolution acts on the six components only, so it commutes with the
FFT: the stepper keeps a ``History`` of packed spectral states, except under
gauged tsee, where the law acts on u, not on the rescaled y, and the stepper
folds u on the grid; the Picard driver keeps physical states of u.  The
stepper's states carry the batch's path axis, and the history carries it
along.

The windowed Picard solve (``stepping.solve_with_memory``) iterates on one
window of ``contraction_step_length`` at a time, to ``stepping.PICARD_TOL``
between iterates: an iterate holds that window's states only, and the
states before the window are folded once into a carried sum that every
iterate continues from.  The direct trapezoid re-summation lives in the
tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, UsageError
from .grid import Field6

ZERO = "zero"
EXPONENTIAL = "exponential"


@dataclass(frozen=True, eq=False)
class KernelSpec:
    """Memory kernel G(t): zero, or amplitude*exp(-rate*t)*coupling."""

    form: str = ZERO
    amplitude: float = 0.0
    rate: float = 0.0
    coupling: np.ndarray | None = None       # 6x6 real, defaults to identity

    def __post_init__(self):
        if self.form not in (ZERO, EXPONENTIAL):
            raise ConfigurationError(f"unknown kernel form {self.form!r}")
        if self.form == EXPONENTIAL and self.coupling is None:
            object.__setattr__(self, "coupling", np.eye(6))
        if self.coupling is not None:
            coupling = np.asarray(self.coupling)
            if coupling.shape != (6, 6) or np.iscomplexobj(coupling):
                raise ConfigurationError(
                    f"the kernel coupling must be a real 6x6 matrix, got "
                    f"shape {coupling.shape} of {coupling.dtype}")
            object.__setattr__(self, "coupling", coupling.astype(np.float64))

    @property
    def is_zero(self):
        return self.form == ZERO or (self.form == EXPONENTIAL and self.amplitude == 0.0)

    def l1_norm(self, horizon: float) -> float:
        """integral_0^T of the spectral operator norm of G(t)."""
        if self.form == ZERO:
            return 0.0
        op = float(np.linalg.norm(self.coupling, 2)) * abs(self.amplitude)
        if self.rate == 0.0:
            return op * horizon
        return op * (1.0 - np.exp(-self.rate * horizon)) / self.rate


def exponential_kernel(amplitude: float, rate: float,
                       coupling: np.ndarray | None = None) -> KernelSpec:
    return KernelSpec(form=EXPONENTIAL, amplitude=amplitude, rate=rate,
                      coupling=coupling)


@dataclass
class History:
    """Carried trapezoid sum of a uniformly spaced state record.

    Single writer (the stepper).  Each appended state is folded into
    ``carried`` at once, with the decay e^{-rate dt} of ``kernel``: H_k is
    ready for the next read, and only the latest state and the carried sum
    are kept.  ``len`` is the number of states appended.
    """

    kernel: KernelSpec
    dt: float
    count: int = 0
    latest: Field6 | None = None
    carried: np.ndarray | None = None

    def append(self, state: Field6):
        data = state.data
        if self.carried is None:
            self.carried = 0.5 * data
        else:
            self.carried *= np.exp(-self.kernel.rate * self.dt)
            self.carried += data
        self.latest = state
        self.count += 1

    def __len__(self):
        return self.count

    def copy(self) -> "History":
        """An independent History that continues from this one's state."""
        carried = None if self.carried is None else self.carried.copy()
        return replace(self, carried=carried)

    def take(self, rows) -> "History":
        """The history of the given paths of a stacked record."""
        return replace(
            self, latest=self.latest.with_data(self.latest.data[rows]),
            carried=None if self.carried is None else self.carried[rows])


def _real_rows(a: np.ndarray) -> np.ndarray:
    """Complex (6, ...) data as six real rows, real and imaginary parts
    interleaved: a view of contiguous data."""
    return a.view(np.float64).reshape(6, -1)


def _apply_matrix(g: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The real 6x6 g acting on the six components: one real matrix product
    per path, so each path's sums run as they do alone."""
    data = np.ascontiguousarray(data)
    out = np.empty(data.shape, np.complex128)
    for d, o in zip(data.reshape((-1,) + data.shape[-4:]),
                    out.reshape((-1,) + out.shape[-4:])):
        np.matmul(g, _real_rows(d), out=_real_rows(o))
    return out


def convolve_history(h: History) -> Field6:
    """Trapezoidal quadrature of integral_0^t G(t - s) u(s) ds at the time
    t_k of the latest state, O(1) per step: a dt C (H_k - u_k / 2)."""
    if not h.count:
        raise UsageError("the memory law needs at least the t = 0 state")
    u = h.latest.data
    kernel = h.kernel
    if kernel.is_zero:
        return h.latest.with_data(np.zeros_like(u))
    diff = 0.5 * u
    np.subtract(h.carried, diff, out=diff)
    conv = _apply_matrix(kernel.coupling, diff)
    conv *= kernel.amplitude * h.dt
    return h.latest.with_data(conv)


def contraction_step_length(g_l1: float, lipschitz_noise: float,
                            horizon: float) -> float:
    """Largest dyadic fraction T0 = T/2^m with kappa(T0) <= 1/2.

    kappa(T0) = (T0 g_l1^2 / 2) exp(2 (1 + 2 Ctil^2 + C^2) T0) with
    C the noise Lipschitz constant and Ctil = 2 C the Burkholder-side
    constant (so the noise contribution drops when C = 0).  Uses the
    squared ||G||_{L^1} form.
    """
    if g_l1 < 0 or lipschitz_noise < 0:
        raise ConfigurationError("contraction constants must be nonnegative")
    if not horizon > 0:
        raise ConfigurationError(f"horizon must be positive, got {horizon}")
    if g_l1 == 0.0:
        return horizon
    c = lipschitz_noise
    ctil = 2.0 * lipschitz_noise
    rate = 2.0 * (1.0 + 2.0 * ctil**2 + c**2)

    def kappa(t0):
        return 0.5 * t0 * g_l1**2 * np.exp(rate * t0)

    t0 = horizon
    for _ in range(200):
        if kappa(t0) <= 0.5:
            return t0
        t0 *= 0.5
    raise NumericalError("contraction window underflow; kernel norm too large")


def picard_solve(window, initial_guess, step, tol: float, max_iter: int,
                 distance):
    """Iterate v -> step(v) to a fixed point on one window.

    ``step`` solves the memory-frozen equation given the input trajectory
    (its G * v is computed from v).  ``distance`` measures the gap between
    successive iterates (``solve_with_memory`` passes the sup-in-time L^2
    distance); geometric decay is expected on admissible windows.  Returns
    (fixed point, iterations, gap history).
    """
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
