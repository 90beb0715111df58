"""Time integration of the truncated Galerkin dynamics.

Two schemes integrate the projected stochastic system

    dy = P_n[ m y - |y|^q y + (drift terms) ] dt + (filtered noise increments)

* ``euler_maruyama``: transparent explicit discretization; the update is
  exactly y + dt*Lambda + noise, with Lambda the projected full drift, so
  step internals and the Lambda diagnostic agree bitwise.
* ``lie_splitting``: exact free propagator, then the monotone implicit
  resolvent of the Kerr drift, then the remaining drift, then the noise
  increment.  Free flow is an exact isometry; the Kerr substep is
  dissipative for every dt.

Equation variants share the machinery:

* ``tsee``:  drift m y - F(y) + A(t) y + J~(t), noise  S_{n-1} b~_i dbeta_i,
             initial state S_{n-1} u0,
* ``msee``:  drift m y - F(y) + G*y + J,        noise  P_n(b_i + i B_i y) dbeta_i,
             initial state S_{n-1} u0,
* ``wsee``:  msee dynamics with sharp initial data P_n u0.

All drift and noise evaluations go through a ``StepContext``, which
precomputes static coefficient products once, deterministically, so a
context built twice from the same inputs reproduces the same floats.
``run_path`` evaluates Lambda and the noise amplitudes Z once per step and
hands both to the stepper: the Euler-Maruyama update is formed from the very
arrays the Lambda diagnostic and the energy ledger read.

The state is spectral between steps: ``PathState.y`` holds y^, on which m,
P_n, S_{n-1} and exp(t m) act as diagonal multipliers.  Once per step
``run_path`` forms the physical view y = to_physical(y^); that one view
feeds the power norm, the Kerr force, A(t) y, the gauge phase, B y and the
recorded fields.  Lambda^ is m y^ plus the spectral sources (J outside
gauged tsee, the memory term) plus one to_spectral of the summed
physical-space terms, masked once by P_n.  L2 norms and the energy ledger
use Parseval.  Transforms per step, with N noise channels:

* linear, trivial gauge, Euler-Maruyama: 1 (the view),
* gauged tsee with Kerr, Euler-Maruyama: 2 + N (view, drift, one per channel),
* msee with Kerr and multiplicative noise, Lie splitting: 5 + 2N (view,
  drift, pre-step noise, the Kerr resolvent's round trip, the propagated
  state's view and noise).

Each path adds one transform of u0 and one per spectral source.  Under Lie
splitting, Lambda and Z at the pre-step state feed only the Lambda series
and the energy ledger, so the ledger residual measures the Euler-Maruyama
increment built from them, not the Lie update that was taken.

The Brownian paths are frozen at the first exit of any |beta_i| over the
truncation level m (default 8 sqrt(T)); the event is logged, not fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, ConfigurationError, UsageError
from .grid import (
    PHYSICAL,
    SPECTRAL,
    Field6,
    GridSpec,
    _require_representation,
    inner_product,
    l2_norm,
    lp_norm,
    to_physical,
    to_spectral,
)
from .kerr import KerrExponent, implicit_kerr_solve, kerr_force
from .memory import History, KernelSpec, convolve_history
from .multipliers import CutoffLevel, sharp_cutoff, smooth_cutoff
from .noise import (
    BrownianBundle,
    NoiseSpec,
    apply_gauge,
    cross_drift_apply,
    freeze_bundle_at_exit,
    gauge_phase,
)
from .operators import maxwell_apply, maxwell_group

EULER_MARUYAMA = "euler_maruyama"
LIE_SPLITTING = "lie_splitting"
TSEE = "tsee"
MSEE = "msee"
WSEE = "wsee"

_SCHEMES = (EULER_MARUYAMA, LIE_SPLITTING)
_EQUATIONS = (TSEE, MSEE, WSEE)


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    dt: float
    cutoff_level: CutoffLevel
    equation: str = TSEE
    kerr: KerrExponent | None = None
    beta_truncation_m: float | None = None
    save_stride: int = 1
    blowup_threshold: float = 1e8

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if self.equation not in _EQUATIONS:
            raise ConfigurationError(f"unknown equation {self.equation!r}")
        if not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.cutoff_level.n < 1:
            raise ConfigurationError(
                "cutoff level must be >= 1 (the noise filter sits one dyadic "
                "level below)")
        if self.save_stride < 1:
            raise ConfigurationError("save_stride must be >= 1")

    @property
    def power(self):
        """Exponent q + 2 of the dissipation norm (4 when the drift is linear)."""
        return (self.kerr.q if self.kerr is not None else 2.0) + 2.0


@dataclass
class PathState:
    """Mutable per-path integration state (single worker); y is spectral."""

    step_index: int
    t: float
    y: Field6
    history: History | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    grid: GridSpec
    times: np.ndarray
    data: np.ndarray  # (len(times), 6, n, n, n)
    representation: str = PHYSICAL

    def state(self, idx: int) -> Field6:
        return Field6(self.grid, self.representation, self.data[idx].copy())

    def __len__(self):
        return len(self.times)


def trajectory_sup_distance(a: Trajectory, b: Trajectory) -> float:
    if len(a) != len(b):
        raise UsageError("trajectories have different lengths")
    weight = np.sqrt(a.grid.cell_volume)
    diff = a.data - b.data
    return float(max(weight * np.linalg.norm(diff[k]) for k in range(len(a))))


@dataclass
class PathReport:
    """Per-path time series and events (the RunReport fragment)."""

    path_index: int
    seed: int
    times: np.ndarray
    l2: np.ndarray
    power_norm: np.ndarray        # ||y(t)||_{q+2}^{q+2}
    lambda_l2: np.ndarray
    energy_residual: np.ndarray
    events: list = field(default_factory=list)
    q: float | None = None

    @property
    def sup_l2_squared(self):
        return float(np.max(self.l2) ** 2)

    @property
    def integral_power_norm(self):
        """dt * sum over steps of ||y(t_{k+1})||_{q+2}^{q+2}."""
        dt = self.times[1] - self.times[0] if len(self.times) > 1 else 0.0
        return float(dt * np.sum(self.power_norm[1:]))

    @property
    def sup_lambda_squared(self):
        return float(np.max(self.lambda_l2) ** 2)


def initial_state(spec: NoiseSpec, cfg: SchemeConfig) -> PathState:
    """Filtered initial datum, spectral: S_{n-1} u0 (sharp P_n u0 for the
    wsee variant)."""
    grid = spec.grid
    if cfg.cutoff_level.scale > grid.nyquist:
        raise ConfigurationError(
            f"cutoff scale 2^{cfg.cutoff_level.n} exceeds the Nyquist "
            f"wavenumber {grid.nyquist:.3f}")
    u0 = spec.u0
    if not np.all(np.isfinite(u0.data)):
        raise ConfigurationError("initial datum contains non-finite values")
    u0_hat = to_spectral(u0)
    if not np.isfinite(l2_norm(maxwell_apply(u0_hat))):
        raise ConfigurationError("initial datum has non-finite curl energy")
    if cfg.equation == WSEE:
        y0 = sharp_cutoff(u0_hat, cfg.cutoff_level)
    else:
        y0 = smooth_cutoff(u0_hat, CutoffLevel(cfg.cutoff_level.n - 1))
    return PathState(step_index=0, t=0.0, y=y0)


def _physical(y: Field6, view: Field6 | None) -> Field6:
    """The physical form of the spectral y: ``view`` when the caller has it."""
    return view if view is not None else to_physical(y)


class StepContext:
    """Precomputed static pieces of the drift and noise for one path.

    Everything here is a pure function of (cfg, spec), so a context built
    twice from the same inputs reproduces the same floats bit for bit.
    Sources that no gauge phase touches are kept spectral: the noise shapes
    under a trivial gauge (already filtered) and the current J, except in
    gauged tsee.  Drift and noise take the spectral state y and return
    spectral fields; ``view`` is its physical form when the caller has it,
    and is formed only when a physical-space term needs it otherwise.
    """

    def __init__(self, cfg: SchemeConfig, spec: NoiseSpec,
                 bundle: BrownianBundle, kernel: KernelSpec | None = None):
        self.cfg = cfg
        self.spec = spec
        self.bundle = bundle
        self.kernel = kernel
        self.kernel_active = (kernel is not None and not kernel.is_zero
                              and cfg.equation in (MSEE, WSEE))
        self.grid = spec.grid
        n3 = (self.grid.points_per_axis,) * 3
        self.phase_trivial = all(not np.any(b) for b in spec.B_fields)

        self.sum_b_squared = None
        if not self.phase_trivial:
            acc = np.zeros(n3)
            for b_field in spec.B_fields:
                acc += b_field**2
            self.sum_b_squared = acc

        # -i b_j(t) B_j = g_j(t) * (-i B_j shape_j): static per channel
        self.coupling_shapes = []
        for b_field, source in zip(spec.B_fields, spec.b_sources):
            if np.any(b_field) and np.any(source.shape.data):
                self.coupling_shapes.append(-1j * b_field * source.shape.data)
            else:
                self.coupling_shapes.append(None)

        self.current_zero = not np.any(spec.current.shape.data)
        self.current_hat = None
        if not self.current_zero and (cfg.equation != TSEE or self.phase_trivial):
            self.current_hat = to_spectral(spec.current.shape).data
        self.noise_level = CutoffLevel(cfg.cutoff_level.n - 1)

        # with a trivial gauge the noise filters commute with the scalar
        # time profile, so the filtered shapes can be cached
        self.cached_noise = None
        if self.phase_trivial and spec.count:
            cached = []
            for source in spec.b_sources:
                raw = to_spectral(source.shape)
                if cfg.equation == TSEE:
                    cached.append(smooth_cutoff(raw, self.noise_level))
                else:
                    cached.append(sharp_cutoff(raw, cfg.cutoff_level))
            self.cached_noise = cached

    # -- drift pieces --------------------------------------------------------

    def _gauged_current(self, t: float) -> np.ndarray | None:
        """(sum_j -i b_j B_j + J)(t) times the gauge phase, or None if zero."""
        spec = self.spec
        total = None
        for source, shape in zip(spec.b_sources, self.coupling_shapes):
            if shape is None:
                continue
            term = source.profile.value(t) * shape
            total = term if total is None else total + term
        if not self.current_zero:
            j_term = spec.current.at(t)
            total = j_term if total is None else total + j_term
        if total is None:
            return None
        return total * gauge_phase(spec, self.bundle, t).values

    def _add_drift_terms(self, acc: np.ndarray | None, phys: np.ndarray | None,
                         y: Field6, view: Field6 | None, t: float,
                         history: History | None,
                         extra_source: np.ndarray | None) -> np.ndarray | None:
        """acc (spectral) plus every drift term besides m y and -F(y), in a
        fixed order: A(t) y and the gauged current (gauged tsee) or J, the
        memory term (msee/wsee), then the extra source.  Physical-space terms
        are summed onto ``phys`` (the drift passes -F(y) there) and enter acc
        through one to_spectral.  An accumulator that is None starts from
        the first term added (a copy, so both are summed in place); None
        comes back when there is no term at all."""
        def add(acc, term):
            if acc is None:
                return term.astype(np.complex128)
            acc += term
            return acc

        if self.cfg.equation == TSEE and not self.phase_trivial:
            view = _physical(y, view)
            beta = self.bundle.values[:, self.bundle.index_of(t)]
            phys = add(phys, 0.5 * self.sum_b_squared * view.data)
            phys = add(phys, cross_drift_apply(self.spec, beta, view))
            current = self._gauged_current(t)
            if current is not None:
                phys = add(phys, current)
        elif self.current_hat is not None:
            acc = add(acc, self.spec.current.profile.value(t) * self.current_hat)
        if self.kernel_active:
            if history is None:
                raise UsageError("memory kernel requires a history")
            acc = add(acc, convolve_history(history, self.kernel, t).data)
        if extra_source is not None:
            phys = add(phys, extra_source)
        if phys is not None:
            acc = add(acc, to_spectral(Field6(self.grid, PHYSICAL, phys)).data)
        return acc

    def drift(self, y: Field6, t: float, history: History | None = None,
              extra_source: np.ndarray | None = None,
              view: Field6 | None = None) -> Field6:
        """The projected full drift P_n[m y - F(y) + ...] (Lambda), spectral."""
        phys = None
        if self.cfg.kerr is not None:
            view = _physical(y, view)
            phys = -kerr_force(view, self.cfg.kerr).data
        acc = maxwell_apply(y).data.copy()
        acc = self._add_drift_terms(acc, phys, y, view, t, history, extra_source)
        return sharp_cutoff(y.with_data(acc), self.cfg.cutoff_level)

    # -- noise pieces ----------------------------------------------------------

    def noise(self, y: Field6, t: float, view: Field6 | None = None) -> list:
        """Filtered noise amplitudes Z_i(t) multiplying dbeta_i, spectral."""
        cfg = self.cfg
        spec = self.spec
        if spec.count == 0:
            return []
        if self.cached_noise is not None:
            # trivial gauge (in msee: B = 0, the multiplicative part vanishes)
            return [cached.with_data(source.profile.value(t) * cached.data)
                    for source, cached in zip(spec.b_sources, self.cached_noise)]
        out = []
        if cfg.equation == TSEE:
            phase = gauge_phase(spec, self.bundle, t).values
            for source in spec.b_sources:
                raw = Field6(self.grid, PHYSICAL, source.at(t) * phase)
                out.append(smooth_cutoff(to_spectral(raw), self.noise_level))
            return out
        view = _physical(y, view)
        for source, b_field in zip(spec.b_sources, spec.B_fields):
            raw = Field6(self.grid, PHYSICAL,
                         source.at(t) + 1j * b_field * view.data)
            out.append(sharp_cutoff(to_spectral(raw), cfg.cutoff_level))
        return out


def _noise_increment(zs, dbeta, shape) -> np.ndarray:
    incr = np.zeros(shape, dtype=np.complex128)
    for z, db in zip(zs, dbeta):
        incr += db * z.data
    return incr


def step_euler_maruyama(state: PathState, ctx: StepContext, lam: Field6,
                        zs: list, src: np.ndarray | None) -> PathState:
    """y + dt Lambda + sum_i Z_i dbeta_i on spectral data, with Lambda and Z
    evaluated at the current state by the caller (``src`` is already part
    of Lambda)."""
    k = state.step_index
    bundle = ctx.bundle
    dbeta = bundle.values[:, k + 1] - bundle.values[:, k]
    incr = ctx.cfg.dt * lam.data + _noise_increment(zs, dbeta,
                                                    state.y.data.shape)
    y_new = state.y.with_data(state.y.data + incr)
    return PathState(step_index=k + 1, t=float(bundle.times[k + 1]), y=y_new,
                     history=state.history)


def step_lie_splitting(state: PathState, ctx: StepContext, lam: Field6,
                       zs: list, src: np.ndarray | None) -> PathState:
    """Exact free flow, Kerr resolvent, remaining drift, noise increment.

    Lambda and Z at the current state are not used: the remaining drift and
    the noise are evaluated at the propagated state.  Only the Kerr
    resolvent and the noise at the propagated state leave Fourier space."""
    cfg = ctx.cfg
    bundle = ctx.bundle
    k = state.step_index
    t = state.t
    # (1) exact free propagator, mode-wise (commutes with the projection)
    y = maxwell_group(cfg.dt, state.y)
    # (2) monotone implicit Kerr resolvent in physical space, re-projected
    if cfg.kerr is not None:
        w = implicit_kerr_solve(to_physical(y), cfg.dt, cfg.kerr)
        y = sharp_cutoff(to_spectral(w), cfg.cutoff_level)
    # (3) remaining drift terms
    rest = ctx._add_drift_terms(None, None, y, None, t, state.history, src)
    if rest is not None:
        y = y.with_data(y.data + cfg.dt * sharp_cutoff(
            y.with_data(rest), cfg.cutoff_level).data)
    # (4) noise increment
    z_prop = ctx.noise(y, t)
    if z_prop:
        dbeta = bundle.values[:, k + 1] - bundle.values[:, k]
        y = y.with_data(y.data + _noise_increment(z_prop, dbeta, y.data.shape))
    return PathState(step_index=k + 1, t=float(bundle.times[k + 1]), y=y,
                     history=state.history)


_STEPPERS = {EULER_MARUYAMA: step_euler_maruyama, LIE_SPLITTING: step_lie_splitting}


@dataclass
class PathResult:
    report: PathReport
    trajectory: Trajectory | None = None
    transformed: Trajectory | None = None  # back-transformed u for tsee runs


class _EnergyLedger:
    """Incremental Ito-identity residual: r(t) = ||X||^2 - ||X0||^2
    - sum dt (2 Re<X,Y> + ||Z||^2) - 2 sum Re<X, Z dbeta>.

    X, Y = Lambda and Z are spectral; norms and inner products are those of
    the physical fields by Parseval.  Y and Z are evaluated at the pre-step
    state, so under Lie splitting the residual measures the Euler-Maruyama
    increment built from them, not the Lie update that was taken."""

    def __init__(self, x0: Field6):
        self.base = l2_norm(x0) ** 2
        self.drift_sum = 0.0
        self.noise_sum = 0.0

    def update(self, x: Field6, y_drift: Field6, zs, dbeta, dt: float):
        quad = 2.0 * inner_product(x, y_drift).real
        for z in zs:
            quad += l2_norm(z) ** 2
        self.drift_sum += dt * quad
        for z, db in zip(zs, dbeta):
            self.noise_sum += 2.0 * inner_product(x, z).real * db

    def residual(self, x: Field6) -> float:
        return l2_norm(x) ** 2 - self.base - self.drift_sum - self.noise_sum


def run_path(spec: NoiseSpec, cfg: SchemeConfig, kernel: KernelSpec | None,
             bundle: BrownianBundle, *, path_index: int = 0,
             record_fields: bool = False, record_transformed: bool = False,
             extra_source=None, initial: Field6 | None = None,
             start_index: int = 0, n_steps: int | None = None) -> PathResult:
    """Integrate one path over the bundle grid and collect diagnostics.

    ``extra_source``: optional callable (step_index, t) -> physical
    (6,n,n,n) array added to the drift before projection (the Picard driver
    feeds the frozen memory term through it).  ``initial``: optional spectral
    start state.  ``start_index``/``n_steps`` select a window of the bundle;
    gauge phases always use absolute time.  The recorded trajectories are
    physical.
    """
    grid = spec.grid
    total_steps = bundle.steps - start_index
    if n_steps is not None:
        total_steps = min(n_steps, total_steps)
    if total_steps < 1:
        raise UsageError("run_path needs at least one step")
    dt_bundle = float(bundle.times[1] - bundle.times[0])
    if abs(dt_bundle - cfg.dt) > 1e-9 * max(1.0, cfg.dt):
        raise UsageError(
            f"bundle spacing {dt_bundle} does not match cfg.dt {cfg.dt}")

    horizon = bundle.horizon
    m_level = cfg.beta_truncation_m
    if m_level is None:
        m_level = 8.0 * np.sqrt(horizon)
    bundle, exit_index = freeze_bundle_at_exit(bundle, m_level)

    events = []
    if exit_index is not None:
        events.append({
            "kind": "beta_truncation",
            "time": float(bundle.times[exit_index]),
            "level": m_level,
        })

    if initial is not None:
        _require_representation(initial, SPECTRAL, "run_path initial state")
        state = PathState(step_index=start_index,
                          t=float(bundle.times[start_index]), y=initial)
    else:
        state = initial_state(spec, cfg)
        state.step_index = start_index
        state.t = float(bundle.times[start_index])
    ctx = StepContext(cfg, spec, bundle, kernel)
    if ctx.kernel_active:
        if start_index != 0:
            raise UsageError("direct memory runs must start at t = 0")
        state.history = History(dt=cfg.dt)

    stepper = _STEPPERS[cfg.scheme]
    power = cfg.power

    k_range = range(start_index, start_index + total_steps)
    times = bundle.times[start_index:start_index + total_steps + 1].copy()
    l2 = np.empty(total_steps + 1)
    power_norm = np.empty(total_steps + 1)
    lambda_l2 = np.empty(total_steps + 1)
    residual = np.empty(total_steps + 1)

    saved = []
    saved_u = []

    def observe(local, t, view):
        """Power norm and recorded fields from the physical view at t."""
        power_norm[local] = lp_norm(view, power) ** power
        if local % cfg.save_stride:
            return
        if record_fields:
            saved.append(view.data)
        if record_transformed and cfg.equation == TSEE:
            phase = gauge_phase(spec, bundle, t)
            saved_u.append(apply_gauge(view, phase, "inverse").data)

    ledger = _EnergyLedger(state.y)
    l2[0] = l2_norm(state.y)
    residual[0] = 0.0
    view = to_physical(state.y)
    observe(0, state.t, view)

    for local, k in enumerate(k_range):
        if state.history is not None:
            state.history.append(state.t, state.y)
        src = extra_source(k, state.t) if extra_source is not None else None
        lam = ctx.drift(state.y, state.t, history=state.history,
                        extra_source=src, view=view)
        lambda_l2[local] = l2_norm(lam)
        zs = ctx.noise(state.y, state.t, view=view)
        dbeta = bundle.values[:, k + 1] - bundle.values[:, k]
        ledger.update(state.y, lam, zs, dbeta, cfg.dt)
        state = stepper(state, ctx, lam, zs, src)

        norm = l2_norm(state.y)
        if not np.isfinite(norm) or norm > cfg.blowup_threshold:
            raise BlowUpError(
                f"trajectory blew up at t = {state.t:.6g} (||y|| = {norm:.3e})",
                time=state.t, norm=norm)
        l2[local + 1] = norm
        residual[local + 1] = ledger.residual(state.y)
        view = to_physical(state.y)
        observe(local + 1, state.t, view)

    if state.history is not None:
        state.history.append(state.t, state.y)
    src = extra_source(k_range[-1] + 1, state.t) if extra_source is not None else None
    final_lam = ctx.drift(state.y, state.t, history=state.history,
                          extra_source=src, view=view)
    lambda_l2[-1] = l2_norm(final_lam)

    report = PathReport(path_index=path_index, seed=bundle.seed, times=times,
                        l2=l2, power_norm=power_norm, lambda_l2=lambda_l2,
                        energy_residual=residual, events=events,
                        q=None if cfg.kerr is None else cfg.kerr.q)
    result = PathResult(report=report)
    if record_fields:
        save_times = times[::cfg.save_stride]
        result.trajectory = Trajectory(grid=grid, times=save_times,
                                       data=np.stack(saved))
    if saved_u:
        save_times = times[::cfg.save_stride]
        result.transformed = Trajectory(grid=grid, times=save_times,
                                        data=np.stack(saved_u))
    return result


def solve_with_memory(spec: NoiseSpec, cfg: SchemeConfig,
                      kernel: KernelSpec, bundle: BrownianBundle, *,
                      lipschitz_noise: float | None = None,
                      tol: float = 1e-10, max_iter: int = 60,
                      window_length: float | None = None):
    """Windowed fixed-point solve of the memory-coupled equation.

    Splits [0, T] into sub-windows no longer than the contraction length,
    then iterates the single-window solver (the memory term frozen from the
    previous iterate) to a fixed point and glues windows together.  Works
    for any equation variant; for ``tsee`` the memory term is computed from
    the back-transformed trajectory and gauged into the y-equation.

    Returns (u trajectory on the full grid, diagnostics dict).
    """
    from .memory import contraction_step_length, picard_solve

    horizon = bundle.horizon
    k_total = bundle.steps
    if lipschitz_noise is None:
        lipschitz_noise = max((float(np.max(np.abs(b))) for b in spec.B_fields),
                              default=0.0)
    g_l1 = kernel.l1_norm(horizon)
    t0 = contraction_step_length(g_l1, lipschitz_noise, horizon)
    if window_length is not None:
        t0 = min(t0, window_length)
    steps_per_window = max(1, int(round(t0 / cfg.dt)))

    grid = spec.grid
    n = grid.points_per_axis
    u_data = np.zeros((k_total + 1, 6, n, n, n), dtype=np.complex128)
    # the filtered initial state, exactly as run_path would build it
    probe = initial_state(spec, cfg)
    view0 = to_physical(probe.y)
    if cfg.equation == TSEE:
        phase0 = gauge_phase(spec, bundle, 0.0)
        u_data[0] = apply_gauge(view0, phase0, "inverse").data
    else:
        u_data[0] = view0.data
    iterations = []

    # the states before a window are fixed across its iterates: they are
    # folded once, and every iterate continues from a copy of the sum
    prefix = History(dt=cfg.dt)
    start = 0
    y_start = probe.y
    while start < k_total:
        count = min(steps_per_window, k_total - start)
        window = (float(bundle.times[start]), float(bundle.times[start + count]))
        while len(prefix) < start:
            j = len(prefix)
            prefix.append(bundle.times[j], Field6(grid, PHYSICAL, u_data[j]))
        if len(prefix):
            prefix.fold(kernel.rate)

        def one_window(u_traj, _start=start, _count=count, _y0=y_start):
            # the source is read at increasing k, so the iterate's history
            # folds each of its window's states once
            history = prefix.copy()

            def source(k_idx, t):
                while len(history) <= k_idx:
                    j = len(history)
                    history.append(bundle.times[j],
                                   Field6(grid, PHYSICAL, u_traj.data[j]))
                conv = convolve_history(history, kernel, t).data
                if cfg.equation == TSEE:
                    phase = gauge_phase(spec, bundle, t)
                    conv = conv * phase.values
                return conv

            res = run_path(spec, cfg, None, bundle, initial=_y0,
                           start_index=_start, n_steps=_count,
                           record_fields=(cfg.equation != TSEE),
                           record_transformed=(cfg.equation == TSEE),
                           extra_source=source)
            new = u_traj.data.copy()
            window_traj = (res.transformed if cfg.equation == TSEE
                           else res.trajectory)
            new[_start:_start + _count + 1] = window_traj.data
            return Trajectory(grid=grid, times=bundle.times.copy(), data=new)

        guess_data = u_data.copy()
        guess_data[start + 1:start + count + 1] = u_data[start]
        guess = Trajectory(grid=grid, times=bundle.times.copy(), data=guess_data)
        fixed, n_iter, gaps = picard_solve(window, guess, one_window, tol,
                                           max_iter)
        iterations.append({"window": window, "iterations": n_iter,
                           "gaps": gaps})
        u_data = fixed.data.copy()
        # the terminal state of this window seeds the next one
        end_state = Field6(grid, PHYSICAL, u_data[start + count])
        if cfg.equation == TSEE:
            phase = gauge_phase(spec, bundle, bundle.times[start + count])
            end_state = apply_gauge(end_state, phase, "forward")
        y_start = to_spectral(end_state)
        start += count

    traj = Trajectory(grid=grid, times=bundle.times.copy(), data=u_data)
    return traj, {"windows": iterations, "window_length": t0,
                  "g_l1": g_l1}
