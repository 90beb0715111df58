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

All drift and noise evaluations go through a ``StepContext``.  Its static
pieces (the filtered initial datum, the spectral current, the filtered
noise shapes, the coupling products) are pure functions of the noise spec,
the equation and the cutoff level; they are built once per spec, so once
per run and once per pool worker, and every path reads the same arrays.
``run_paths`` evaluates Lambda and the noise amplitudes Z once per step and
hands both to the stepper: the Euler-Maruyama update is formed from the very
arrays the Lambda diagnostic and the energy ledger read.  The gauge phase
(gauged tsee) is formed once per step too, and the pointwise norm of the
physical view feeds both the power norm and the next Kerr force.

The step index k is the only clock; ``run_paths`` owns it with the batch's
Brownian values and forms dbeta_k = beta(t_{k+1}) - beta(t_k) once per step
for the energy ledger and the stepper.  A stepper maps (y, t_k, dbeta_k) to
the state at t_{k+1}; the gauge phase reads beta at index k and the memory
``History`` holds one state per index.  A run covers the whole of the
bundles it is given, so k indexes them from their first time; the Picard
driver (``solve_with_memory``) runs a window by handing over that window's
slice of its frozen bundle.  Each state is observed once, at the top of the
step loop (norms, ledger, phase, view, yield, memory term, Lambda), then
stepped, the last one excepted; blow-ups are checked on stepped states.

Paths are stepped in batches: ``run_paths`` advances P paths, one Brownian
bundle each, with one call per operation.  The packed state is
(P, 6, m, m, m), its physical view (P, 6, n, n, n), the bundles are stacked
as (P, N, K+1) (``noise.BundleStack``) and the gauge phases are
(P, n, n, n); path-independent pieces (the trivial-gauge noise shapes, the
current) keep no path axis and broadcast.  Transforms and pointwise maps
act on every slice alone, so they give each path the floats it would get
alone; every reduction (norms, inner products, the ledger) runs one path at
a time through ``grid.per_path``, and the branches that depend on the
state take each path's own: the zero-beta skip of the cross drift, the
Newton stop of the Kerr resolvent (solved path by path), beta truncation
(each path freezes its own bundle) and blow-up (the path leaves the batch,
the rest go on).  So a path's results are bitwise the same in any batch,
a batch of one included.  Runs and studies cut their paths into
``path_batches``, capped by ``BATCH_VALUES``.

The state is the vector of Galerkin coefficients: the packed y holds y^
on the modes |k_i| <= 2^n only (``galerkin.GalerkinSpace``; when the cube
covers the grid that is every mode and the packed array is the full one).
m, S_{n-1}, exp(t m), the memory sum, the noise shapes, the Euler-Maruyama
update and the Parseval norms of the ledger all act on packed arrays.  Once
per step ``run_paths`` forms the physical view y = to_physical(y^), whose
pruned inverse passes cover only the grid lines that hold a retained mode;
that one view feeds the power norm, the Kerr force, A(t) y, the gauge phase,
B y and the saved fields, which leave the run only as the states it
yields.  Lambda^ is m y^ plus the spectral
sources (J outside gauged tsee, the memory term) plus one packed transform
(``GalerkinSpace.spectral``) of the summed physical-space terms: its pruned
forward passes compute the retained modes only, so it is P_n and no mask
multiply is left.  ``run_paths(initial=...)`` applies P_n to the start state
it is given, which drops the rounding-level modes outside the cube of a state
that went through physical space (the Picard windows hand over a
gauge-round-tripped state).  Both pruned transforms are bitwise the
full-grid ones, and a covering cube runs the full-grid ones.  Transforms per
step, with N noise channels (one transform call covers a whole batch, so
these are also the calls per batched step; each is one ``to_physical`` or
one ``GalerkinSpace.spectral``):

* linear, trivial gauge, Euler-Maruyama: 1 (the view),
* gauged tsee with Kerr, Euler-Maruyama: 2 + N (view, drift, one per channel),
* msee with Kerr and multiplicative noise, Lie splitting: 5 + 2N (view,
  drift, pre-step noise, the Kerr resolvent's round trip, the propagated
  state's view and noise).

The memory law is a ``KernelSpec`` or None (no memory).  With a kernel, the
memory term (G * u)(t_k) is formed once per step, for every equation, in
``StepContext.memory_term``; the drift and, under Lie splitting, the
remaining drift read it.  The run's ``History`` folds packed y, or under
gauged tsee u from the step's view and phase (then the term is gauged back,
and joins the physical terms before the drift's one packed transform).

Under Lie splitting, Lambda and Z at the pre-step state feed only the
Lambda series and the energy ledger, so the ledger residual measures the
Euler-Maruyama increment built from them, not the Lie update that was taken.

The Brownian paths of a bundle are frozen at the first exit of any
|beta_i| over the truncation level m (default 8 sqrt(T)); the event is
logged, not fatal.  Freezing a frozen bundle, or a slice of one, at the same
level changes no value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import BlowUpError, ConfigurationError, NumericalError, UsageError
from .galerkin import GalerkinSpace, galerkin_space
from .grid import (
    PHYSICAL,
    SPECTRAL,
    Field6,
    _require_representation,
    inner_product,
    l2_norm,
    lp_norm,
    pointwise_norm,
    to_physical,
    to_spectral,
)
from .kerr import KerrExponent, implicit_kerr_solve, kerr_force
from .memory import (History, KernelSpec, contraction_step_length,
                     convolve_history)
from .multipliers import CutoffLevel, smooth_cutoff
from .noise import (
    BrownianBundle,
    BundleStack,
    GaugePhase,
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
BLOWUP_THRESHOLD = 1e8   # a path whose l2 norm passes this has blown up
PICARD_TOL = 1e-10       # sup-in-time L^2 gap at a Picard fixed point
PICARD_MAX_ITER = 60     # Picard iterations per window
MAX_STEPS = 2**20        # steps of a run: each (K+1) row of it is 8 MB here


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    dt: float
    cutoff_level: CutoffLevel
    equation: str = TSEE
    kerr: KerrExponent | None = None
    beta_truncation_m: float | None = None

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

    @property
    def power(self):
        """Exponent q + 2 of the dissipation norm (4 when the drift is linear)."""
        return (self.kerr.q if self.kerr is not None else 2.0) + 2.0


@dataclass
class PathReport:
    """Per-path time series and events (the RunReport fragment)."""

    path_index: int
    times: np.ndarray
    l2: np.ndarray
    power_norm: np.ndarray        # ||y(t)||_{q+2}^{q+2}
    lambda_l2: np.ndarray
    energy_residual: np.ndarray
    events: list = field(default_factory=list)

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


@lru_cache(maxsize=8)
def m_u0_norm(spec: NoiseSpec) -> float:
    """||m u0|| (Parseval, on the full grid): the start state's curl-energy
    check and the M2 row of assumptions.csv read it; built once per spec."""
    return l2_norm(maxwell_apply(to_spectral(spec.u0)))


@lru_cache(maxsize=8)
def initial_coefficients(spec: NoiseSpec, equation: str,
                         level: CutoffLevel) -> Field6:
    """Filtered initial datum, packed: S_{n-1} u0 (sharp P_n u0 for the
    wsee variant).  Built once per (spec, equation, level)."""
    grid = spec.grid
    if level.scale > grid.nyquist:
        raise ConfigurationError(
            f"cutoff scale 2^{level.n} exceeds the Nyquist "
            f"wavenumber {grid.nyquist:.3f}")
    u0 = spec.u0
    if not np.all(np.isfinite(u0.data)):
        raise ConfigurationError("initial datum contains non-finite values")
    if not np.isfinite(m_u0_norm(spec)):
        raise ConfigurationError("initial datum has non-finite curl energy")
    y0 = galerkin_space(grid, level).spectral(u0)
    if equation == WSEE:
        return y0
    return smooth_cutoff(y0, CutoffLevel(level.n - 1))


def _physical(y: Field6, view: Field6 | None) -> Field6:
    """The physical form of the spectral y: ``view`` when the caller has it."""
    return view if view is not None else to_physical(y)


@dataclass(frozen=True, eq=False)
class _StaticPieces:
    """The path-independent pieces of the drift and noise, packed."""

    space: GalerkinSpace
    gauged: bool                  # tsee with a nontrivial gauge phase
    sum_b_squared: np.ndarray | None
    coupling_shapes: tuple        # -i B_j b_j shape, or None per channel
    current_zero: bool
    current_hat: np.ndarray | None
    noise_level: CutoffLevel
    cached_noise: tuple | None    # filtered noise shapes (trivial gauge)
    i_b_fields: tuple             # i B_j per channel (msee noise)


@lru_cache(maxsize=8)
def _static_pieces(spec: NoiseSpec, equation: str,
                   level: CutoffLevel) -> _StaticPieces:
    space = galerkin_space(spec.grid, level)
    n3 = (spec.grid.points_per_axis,) * 3
    phase_trivial = all(not np.any(b) for b in spec.B_fields)
    gauged = equation == TSEE and not phase_trivial

    sum_b_squared = None
    if not phase_trivial:
        sum_b_squared = np.zeros(n3)
        for b_field in spec.B_fields:
            sum_b_squared += b_field**2

    # -i b_j(t) B_j = g_j(t) * (-i B_j shape_j): static per channel
    coupling_shapes = tuple(
        -1j * b_field * source.shape.data
        if np.any(b_field) and np.any(source.shape.data) else None
        for b_field, source in zip(spec.B_fields, spec.b_sources))

    current_zero = not np.any(spec.current.shape.data)
    current_hat = None
    if not current_zero and not gauged:
        current_hat = space.spectral(spec.current.shape).data
    noise_level = CutoffLevel(level.n - 1)

    # with a trivial gauge the noise filters commute with the scalar
    # time profile, so the filtered shapes can be cached
    cached_noise = None
    if phase_trivial and spec.count:
        cached_noise = []
        for source in spec.b_sources:
            raw = space.spectral(source.shape)
            if equation == TSEE:
                raw = smooth_cutoff(raw, noise_level)
            cached_noise.append(raw)
        cached_noise = tuple(cached_noise)
    # i B_j of the multiplicative msee noise i B_j y, where it is formed
    i_b_fields = ()
    if equation != TSEE and not phase_trivial:
        i_b_fields = tuple(1j * b_field for b_field in spec.B_fields)
    return _StaticPieces(space, gauged, sum_b_squared, coupling_shapes,
                         current_zero, current_hat, noise_level, cached_noise,
                         i_b_fields)


class StepContext:
    """The drift and noise of one path or of a batch of paths.

    The static pieces are shared by every path of the same (spec, equation,
    level) and are pure functions of those, so they reproduce the same
    floats bit for bit.  Sources that no gauge phase touches are kept
    spectral: the noise shapes under a trivial gauge (already filtered) and
    the current J, except in gauged tsee.  Drift and noise take the packed
    state y and return packed fields.  The drift also takes the memory term
    at t (``memory_term``, packed or physical), y's physical ``view``, its
    pointwise norm ``magnitude`` (None without Kerr) and the phase ``gauge``
    at t (``noise.gauge_phase`` at t's grid index; None when no gauged term
    is evaluated); the noise takes the phase and, when the caller has it,
    the view.

    A context depends on (cfg, spec) alone: the run owns the Brownian
    values and the clock, and hands each evaluation its time t and, where a
    gauged term is formed, the phase of every path.  y is one path's state
    or a batch's stacked states; noise amplitudes that do not depend on the
    path (a trivial gauge) come back without a path axis.
    """

    def __init__(self, cfg: SchemeConfig, spec: NoiseSpec):
        self.cfg = cfg
        self.spec = spec
        self.grid = spec.grid
        self.static = _static_pieces(spec, cfg.equation, cfg.cutoff_level)
        self.space = self.static.space

    # -- drift pieces --------------------------------------------------------

    def _gauged_current(self, t: float, gauge: GaugePhase) -> np.ndarray | None:
        """(sum_j -i b_j B_j + J)(t) times the gauge phase, or None if zero."""
        spec = self.spec
        total = None
        for source, shape in zip(spec.b_sources, self.static.coupling_shapes):
            if shape is None:
                continue
            term = source.profile.value(t) * shape
            total = term if total is None else total + term
        if not self.static.current_zero:
            j_term = spec.current.at(t)
            total = j_term if total is None else total + j_term
        if total is None:
            return None
        return total * gauge.of_fields

    def memory_term(self, history: History | None,
                    gauge: GaugePhase | None) -> Field6 | None:
        """The memory term (G * u)(t_k) at the latest state of ``history``,
        in its representation, taken to the y frame by ``gauge`` when the
        step has one; None without a history.  A step evaluates it once: the
        drift and the Lie stepper's remaining drift read the same field."""
        if history is None:
            return None
        term = convolve_history(history)
        if gauge is not None:
            term = apply_gauge(term, gauge, "forward")
        return term

    def _add_drift_terms(self, acc: np.ndarray | None, phys: np.ndarray | None,
                         y: Field6, view: Field6 | None, t: float,
                         memory: Field6 | None,
                         gauge: GaugePhase | None) -> np.ndarray | None:
        """acc (packed) plus every drift term besides m y and -F(y), in a
        fixed order: A(t) y and the gauged current (gauged tsee) or J, then
        the memory term (``memory_term``).  Physical-space terms, a physical
        memory term among them, are summed onto ``phys`` (the drift passes
        -F(y) there) and enter acc through one packed transform.  An
        accumulator that is None starts from the first term added (a copy
        with y's path axis, so every later term is summed in place); None
        comes back when there is no term at all."""
        paths = y.data.shape[:-4]

        def add(acc, term):
            if acc is None:
                return np.broadcast_to(term, paths + term.shape[-4:]).astype(
                    np.complex128)
            acc += term
            return acc

        static = self.static
        if static.gauged:
            view = _physical(y, view)
            phys = add(phys, 0.5 * static.sum_b_squared * view.data)
            phys = add(phys, cross_drift_apply(self.spec, gauge.beta, view))
            current = self._gauged_current(t, gauge)
            if current is not None:
                phys = add(phys, current)
        elif static.current_hat is not None:
            acc = add(acc, self.spec.current.profile.value(t) * static.current_hat)
        if memory is not None and memory.representation == PHYSICAL:
            phys = add(phys, memory.data)
        elif memory is not None:
            acc = add(acc, memory.data)
        if phys is not None:
            acc = add(acc, self.space.spectral(
                Field6(self.grid, PHYSICAL, phys)).data)
        return acc

    def drift(self, y: Field6, t: float, memory: Field6 | None, view: Field6,
              gauge: GaugePhase | None,
              magnitude: np.ndarray | None) -> Field6:
        """The projected full drift P_n[m y - F(y) + ...] (Lambda), packed."""
        phys = None
        if self.cfg.kerr is not None:
            phys = -kerr_force(view, self.cfg.kerr, magnitude).data
        acc = maxwell_apply(y).data.copy()
        acc = self._add_drift_terms(acc, phys, y, view, t, memory, gauge)
        return self.space.field(acc)

    # -- noise pieces ----------------------------------------------------------

    def noise(self, y: Field6, t: float, gauge: GaugePhase | None,
              view: Field6 | None = None) -> list:
        """Filtered noise amplitudes Z_i(t) multiplying dbeta_i, packed."""
        spec = self.spec
        static = self.static
        if spec.count == 0:
            return []
        if static.cached_noise is not None:
            # trivial gauge (in msee: B = 0, the multiplicative part vanishes)
            return [cached.with_data(source.profile.value(t) * cached.data)
                    for source, cached in zip(spec.b_sources,
                                              static.cached_noise)]
        out = []
        if static.gauged:
            phase = gauge.of_fields
            for source in spec.b_sources:
                raw = Field6(self.grid, PHYSICAL, source.at(t) * phase)
                out.append(smooth_cutoff(self.space.spectral(raw),
                                         static.noise_level))
            return out
        view = _physical(y, view)
        for source, i_b_field in zip(spec.b_sources, static.i_b_fields):
            # summed into the stacked term: numpy reuses a temporary only
            # when both operands have its shape
            raw = i_b_field * view.data
            raw += source.at(t)
            out.append(self.space.spectral(Field6(self.grid, PHYSICAL, raw)))
        return out


def _noise_increment(zs, dbeta):
    """sum_i Z_i dbeta_i, summed in channel order; 0.0 without channels.
    dbeta is (N,), or (P, N) with one row per path of a batch."""
    if not zs:
        return 0.0

    def term(i):
        return dbeta[..., i, None, None, None, None] * zs[i].data

    incr = term(0)
    for i in range(1, len(zs)):
        incr += term(i)
    return incr


def step_euler_maruyama(y: Field6, t: float, dbeta: np.ndarray,
                        ctx: StepContext, lam: Field6, zs: list,
                        memory: Field6 | None,
                        gauge: GaugePhase | None) -> Field6:
    """y(t_{k+1}) = y + dt Lambda + sum_i Z_i dbeta_i on packed data, with
    Lambda and Z evaluated at y = y(t_k), t = t_k, by the caller (``memory``
    is already part of Lambda).  dbeta is the step's increment
    beta(t_{k+1}) - beta(t_k): (N,), or (P, N) with one row per path."""
    incr = ctx.cfg.dt * lam.data + _noise_increment(zs, dbeta)
    return y.with_data(y.data + incr)


def step_lie_splitting(y: Field6, t: float, dbeta: np.ndarray,
                       ctx: StepContext, lam: Field6, zs: list,
                       memory: Field6 | None,
                       gauge: GaugePhase | None) -> Field6:
    """Exact free flow, Kerr resolvent, remaining drift, noise increment:
    y(t_k) to y(t_{k+1}), with t = t_k and dbeta as in
    ``step_euler_maruyama``.

    Lambda and Z at the current state are not used: the remaining drift and
    the noise are evaluated at the propagated state, with the step's gauge
    phase; the memory term depends on the history and t only, so the step's
    one evaluation ``memory`` enters as it is.  Only the Kerr resolvent and
    the noise at the propagated state leave Fourier space."""
    cfg = ctx.cfg
    # (1) exact free propagator, mode-wise (commutes with the projection)
    y = maxwell_group(cfg.dt, y)
    # (2) monotone implicit Kerr resolvent in physical space, re-projected
    if cfg.kerr is not None:
        w = implicit_kerr_solve(to_physical(y), cfg.dt, cfg.kerr)
        y = ctx.space.spectral(w)
    # (3) remaining drift terms
    rest = ctx._add_drift_terms(None, None, y, None, t, memory, gauge)
    if rest is not None:
        y = y.with_data(y.data + cfg.dt * rest)
    # (4) noise increment
    z_prop = ctx.noise(y, t, gauge=gauge)
    if z_prop:
        y = y.with_data(y.data + _noise_increment(z_prop, dbeta))
    return y


_STEPPERS = {EULER_MARUYAMA: step_euler_maruyama, LIE_SPLITTING: step_lie_splitting}


def _rows(value, count: int) -> list:
    """A reduction's per-path values as Python numbers; a value computed once
    for a path-independent field is every path's."""
    return value.tolist() if isinstance(value, np.ndarray) else [value] * count


class _EnergyLedger:
    """Incremental Ito-identity residual of each path of a batch: r(t) =
    ||X||^2 - ||X0||^2 - sum dt (2 Re<X,Y> + ||Z||^2) - 2 sum Re<X, Z dbeta>.

    X, Y = Lambda and Z are packed; norms and inner products are those of
    the physical fields by Parseval.  They come in reduced path by path
    (``grid.per_path``) and each path's sums are carried in Python floats,
    so a path's residual does not depend on its batch.  Y and Z are
    evaluated at the pre-step state, so under Lie splitting the residual
    measures the Euler-Maruyama increment built from them, not the Lie
    update that was taken."""

    def __init__(self, x0_norms: list):
        self.base = [v ** 2 for v in x0_norms]
        self.drift_sum = [0.0] * len(x0_norms)
        self.noise_sum = [0.0] * len(x0_norms)

    def update(self, x: Field6, y_drift: Field6, zs, dbeta, dt: float):
        """One step; dbeta is (P, N), one row per path."""
        count = len(self.base)
        quad = [2.0 * ip.real for ip in _rows(inner_product(x, y_drift), count)]
        for z in zs:
            quad = [qd + zn ** 2 for qd, zn in zip(quad, _rows(l2_norm(z), count))]
        self.drift_sum = [s + dt * qd for s, qd in zip(self.drift_sum, quad)]
        for i, z in enumerate(zs):
            self.noise_sum = [
                s + 2.0 * ip.real * db for s, ip, db in
                zip(self.noise_sum, _rows(inner_product(x, z), count),
                    dbeta[:, i])]

    def residual(self, x_norms: list) -> list:
        return [v ** 2 - base - drift - noise for v, base, drift, noise in
                zip(x_norms, self.base, self.drift_sum, self.noise_sum)]

    def take(self, rows):
        """Keep the given paths only."""
        for name in ("base", "drift_sum", "noise_sum"):
            values = getattr(self, name)
            setattr(self, name, [values[r] for r in rows])


# Cap on P * 6 n^3, the values of one stacked field of a batch of P paths on
# an n^3 grid: 8 paths at 8^3, one from 16^3 up.  At 8^3 path-steps per
# second level off from about P = 4 and P = 8 beats P = 16 (2 shared cores,
# single-threaded FFTs); two paths at 16^3 would gain about 1.3x, and the
# cap that allows them puts 16 paths in an 8^3 batch, where criterion 5
# peaks at 67.1 MB against 66.9 MB at this cap (ru_maxrss, min of 3).
BATCH_VALUES = 6 * 8**3 * 8


def path_batches(points: int, paths: int) -> list:
    """Contiguous path-index ranges of at most max(1, BATCH_VALUES // 6n^3)
    paths each: a function of the grid size and path count only."""
    size = max(1, BATCH_VALUES // (6 * points**3))
    return [range(start, min(start + size, paths))
            for start in range(0, paths, size)]


def _truncation_level(cfg: SchemeConfig, horizon: float) -> float:
    """The level m at which a bundle over [0, T] is frozen: cfg's
    ``beta_truncation_m``, or 8 sqrt(T) when that is None."""
    if cfg.beta_truncation_m is None:
        return 8.0 * np.sqrt(horizon)
    return cfg.beta_truncation_m


def _freeze(bundle: BrownianBundle, level: float):
    """(the bundle frozen at ``level``, its events): one beta_truncation
    event at the exit time, or none."""
    bundle, exit_index = freeze_bundle_at_exit(bundle, level)
    return bundle, [] if exit_index is None else [{
        "kind": "beta_truncation",
        "time": float(bundle.times[exit_index]),
        "level": level,
    }]


def raise_blowups(results: list) -> list:
    """The results of ``run_paths``; raises the BlowUpError of the first
    path that blew up."""
    for result in results:
        if isinstance(result, BlowUpError):
            raise result
    return results


def observed(run, outcomes: list):
    """Yield ``run``'s states, then put its outcome list in ``outcomes``."""
    outcomes[:] = yield from run


def run_paths(spec: NoiseSpec, cfg: SchemeConfig, kernel: KernelSpec | None,
              bundles, *, path_indices=None, history_at=None,
              initial: Field6 | None = None):
    """Integrate a batch of paths, one bundle each, stepped together over the
    whole of their (shared) time grid.

    A generator: at every state, t_0 to t_K, it yields (k, paths, view,
    gauge), the step index k, the path indices of the rows still stepping,
    their physical view (one row each, in that order) and the step's gauge
    phase, or None where the run forms none (msee, wsee, and tsee with a
    trivial phase, where u = y).  It steps on when asked for the next state
    and holds no record: the caller keeps what it reads.  It returns
    (``observed`` hands it over) one entry per bundle: its PathReport, or
    the BlowUpError of a path whose norm left the threshold; such a path
    leaves the batch and the rest go on.  Each path's results are bitwise
    the same in any batch.

    ``path_indices`` label the reports (default 0..P-1).  ``history_at``:
    optional callable step_index -> the memory ``History`` to read at that
    step (the Picard driver's); without it a ``kernel`` (None: no memory)
    folds the run's own, from t = 0.  ``initial``: optional spectral start
    state of every path, full-grid or packed; P_n is applied to it, so modes
    outside the cube do not enter the run.  A run covers its bundles from
    their first time to their last; the Picard driver runs a window by
    handing over a slice of its frozen bundle, whose step k is the window's.
    """
    count = len(bundles)
    path_indices = list(range(count) if path_indices is None else path_indices)
    if count < 1 or len(path_indices) != count:
        raise UsageError("run_paths needs one path index per bundle, and at "
                         "least one bundle")
    first = bundles[0]
    if first.steps < 1:
        raise UsageError("run_paths needs at least one step")
    dt_bundle = float(first.times[1] - first.times[0])
    if abs(dt_bundle - cfg.dt) > 1e-9 * max(1.0, cfg.dt):
        raise UsageError(
            f"bundle spacing {dt_bundle} does not match cfg.dt {cfg.dt}")

    m_level = _truncation_level(cfg, first.horizon)
    frozen, events = zip(*(_freeze(bundle, m_level) for bundle in bundles))

    stack = BundleStack.of(frozen)
    ctx = StepContext(cfg, spec)
    if initial is not None:
        _require_representation(initial, SPECTRAL, "run_paths initial state")
        y0 = ctx.space.pack(initial)
    else:
        y0 = initial_coefficients(spec, cfg.equation, cfg.cutoff_level)
    y = y0.with_data(np.broadcast_to(y0.data, (count,) + y0.data.shape))
    history = None
    if kernel is not None:
        if first.times[0] != 0.0:
            raise UsageError("direct memory runs must start at t = 0")
        history = History(kernel, cfg.dt)
    if history_at is None:
        def history_at(k):
            return history

    stepper = _STEPPERS[cfg.scheme]
    power = cfg.power
    steps = first.steps
    l2, power_norm, lambda_l2, residual = (
        np.empty((count, steps + 1)) for _ in range(4))
    outcomes = [None] * count
    alive = list(range(count))  # the batch's rows still stepping

    for k in range(steps + 1):
        t = float(stack.times[k])
        norms = l2_norm(y).tolist()
        kept = [i for i, norm in enumerate(norms)
                if np.isfinite(norm) and norm <= BLOWUP_THRESHOLD]
        if k == 0:
            ledger = _EnergyLedger(norms)
        elif len(kept) < len(alive):  # only a stepped state blows up
            for i, norm in enumerate(norms):
                if i not in kept:
                    outcomes[alive[i]] = BlowUpError(
                        f"trajectory blew up at t = {t:.6g} "
                        f"(||y|| = {norm:.3e})", time=t, norm=norm)
            alive = [alive[i] for i in kept]
            if not alive:
                break
            norms = [norms[i] for i in kept]
            ledger.take(kept)
            stack = stack.take(kept)
            y = y.with_data(y.data[kept])
            if history is not None:
                history = history.take(kept)
        l2[alive, k] = norms
        residual[alive, k] = ledger.residual(norms)

        # one gauge phase per step, shared by drift, noise and the caller
        gauge = gauge_phase(spec, stack, k) if ctx.static.gauged else None
        view = to_physical(y)
        magnitude = pointwise_norm(view)
        norms = lp_norm(view, power, magnitude).tolist()
        power_norm[alive, k] = [v ** power for v in norms]
        if cfg.kerr is None:
            magnitude = None  # only the Kerr force reads it
        yield k, [path_indices[row] for row in alive], view, gauge

        if history is not None:
            # u under gauged tsee: the law acts on u, not on y
            history.append(y if gauge is None
                           else apply_gauge(view, gauge, "inverse"))
        memory = ctx.memory_term(history_at(k), gauge)
        lam = ctx.drift(y, t, memory=memory, view=view, gauge=gauge,
                        magnitude=magnitude)
        lambda_l2[alive, k] = l2_norm(lam)
        if k == steps:
            break  # the last state is observed, not stepped

        zs = ctx.noise(y, t, view=view, gauge=gauge)
        dbeta = stack.values[..., k + 1] - stack.values[..., k]
        ledger.update(y, lam, zs, dbeta, cfg.dt)
        y = stepper(y, t, dbeta, ctx, lam, zs, memory, gauge)

    for row in alive:
        report = PathReport(path_index=path_indices[row],
                            times=first.times.copy(), l2=l2[row].copy(),
                            power_norm=power_norm[row].copy(),
                            lambda_l2=lambda_l2[row].copy(),
                            energy_residual=residual[row].copy(),
                            events=events[row])
        outcomes[row] = report
    return outcomes


def solve_with_memory(spec: NoiseSpec, cfg: SchemeConfig,
                      kernel: KernelSpec, bundle: BrownianBundle):
    """Windowed fixed-point solve of the memory-coupled equation.

    Splits [0, T] into sub-windows no longer than the contraction length,
    then iterates the single-window solver (the memory term frozen from the
    previous iterate) to a fixed point and glues windows together.  A
    window run reads the ``History`` of u (the states before the window,
    then the previous iterate) through ``run_paths(history_at=...)``.  The
    direct run carries the memory law for every equation, so this driver is
    its oracle; the ``tsee`` branch serves that check only.  An iterate w is
    u over its window, every state of the window and no other, filled from
    the states its run yields; its gap to the previous iterate v,
    max_k sqrt(cell_volume) ||w_k - v_k||, is taken as w steps.  The states
    before the window are the same in every iterate, so that gap is the sup
    distance over [0, T].  A window stops at a gap of at most
    ``PICARD_TOL``; one that has not within ``PICARD_MAX_ITER`` iterations
    raises NumericalError.

    The bundle is frozen once, at the truncation level of [0, T], and each
    window runs on its slice of the frozen bundle: the steps, the gauged
    memory term and the u <-> y phases at the window ends read one beta.
    The truncation event is that freeze's, reported once.

    Returns (u, the (K+1, 6, n, n, n) array of physical states on the full
    grid; a diagnostics dict with ``windows``, each its ``window``
    (t_a, t_b), ``iterations`` and ``gaps``, then ``window_length``,
    ``g_l1`` and ``events``).
    """
    horizon = bundle.horizon
    m_level = _truncation_level(cfg, horizon)
    bundle, events = _freeze(bundle, m_level)
    # a window's slice is frozen again at the same level, which keeps it
    cfg = replace(cfg, beta_truncation_m=m_level)
    k_total = bundle.steps
    lipschitz_noise = max((float(np.max(np.abs(b))) for b in spec.B_fields),
                          default=0.0)
    g_l1 = kernel.l1_norm(horizon)
    t0 = contraction_step_length(g_l1, lipschitz_noise, horizon)
    steps_per_window = max(1, int(round(t0 / cfg.dt)))

    grid = spec.grid
    weight = np.sqrt(grid.cell_volume)
    n = grid.points_per_axis
    u_data = np.zeros((k_total + 1, 6, n, n, n), dtype=np.complex128)
    # the filtered initial state, exactly as run_paths would build it
    y_start = initial_coefficients(spec, cfg.equation, cfg.cutoff_level)
    view0 = to_physical(y_start)
    if cfg.equation == TSEE:
        phase0 = gauge_phase(spec, bundle, 0)
        u_data[0] = apply_gauge(view0, phase0, "inverse").data
    else:
        u_data[0] = view0.data
    iterations = []

    # the states before a window are fixed across its iterates: they are
    # folded once, and every iterate continues from a copy of the sum
    prefix = History(kernel, cfg.dt)
    start = 0
    while start < k_total:
        count = min(steps_per_window, k_total - start)
        stop = start + count
        window_bundle = BrownianBundle(
            times=bundle.times[start:stop + 1],
            values=bundle.values[:, start:stop + 1], seed=bundle.seed,
            level=bundle.level)
        window = (float(bundle.times[start]), float(bundle.times[stop]))
        while len(prefix) < start:
            prefix.append(Field6(grid, PHYSICAL, u_data[len(prefix)]))

        v = np.broadcast_to(u_data[start], (count + 1,) + u_data.shape[1:])
        gaps = []
        for _ in range(PICARD_MAX_ITER):
            # the history is read at increasing k, so it folds each state
            # of v once
            history = prefix.copy()

            def history_at(k):
                while len(history) <= k + start:
                    history.append(Field6(grid, PHYSICAL,
                                          v[len(history) - start]))
                return history

            w = np.empty(v.shape, np.complex128)
            gap, outcomes = 0.0, []
            for k, _, view, gauge in observed(run_paths(
                    spec, cfg, None, [window_bundle], history_at=history_at,
                    initial=y_start), outcomes):
                # u, the back-transformed field (u = y outside gauged tsee)
                w[k] = (view if gauge is None
                        else apply_gauge(view, gauge, "inverse")).data[0]
                gap = max(gap, weight * np.linalg.norm(w[k] - v[k]))
            raise_blowups(outcomes)
            gaps.append(float(gap))
            v = w
            if gap <= PICARD_TOL:
                break
        else:
            raise NumericalError(
                f"picard iteration did not contract on window {window}: "
                f"gaps {gaps[-3:]} (window too long or constants wrong)")
        iterations.append({"window": window, "iterations": len(gaps),
                           "gaps": gaps})
        u_data[start:stop + 1] = v
        # the terminal state of this window seeds the next one
        end_state = Field6(grid, PHYSICAL, u_data[stop])
        if cfg.equation == TSEE:
            phase = gauge_phase(spec, bundle, stop)
            end_state = apply_gauge(end_state, phase, "forward")
        y_start = to_spectral(end_state)
        start = stop

    return u_data, {"windows": iterations, "window_length": t0,
                    "g_l1": g_l1, "events": events}
