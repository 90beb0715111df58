"""Experiment configuration: flat sectioned key-value text, profile library.

Grammar (see README for the full reference): INI-style sections with plain
``key = value`` lines.  Field and coefficient profiles are written as

    name(arg=value, vec=1 0 0, ...) [* timeprofile]

with the spatial profile names ``zero``, ``constant``, ``plane-wave``,
``gaussian-bump``, ``band-limited-random`` and the time profiles ``const``,
``cos(w)``, ``sin(w)``, ``exp(rate)``.

Validation failures carry the assumption tag they violate, e.g.
"[M1] violated: q=3.0 in strong mode".
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .galerkin import cube_space
from .grid import (
    PHYSICAL,
    Field6,
    GridSpec,
    cube_scratch,
    ifft_array,
    ifft_cube,
    lp_norm,
    make_grid,
    zero_field,
)
from .kerr import KerrExponent
from .memory import EXPONENTIAL, ZERO, KernelSpec
from .multipliers import MAX_LEVEL, CutoffLevel
from .noise import (NoiseSpec, SeparableSource, TimeProfile, band_limit_defect,
                    make_noise_spec)
from .stepping import MAX_STEPS, MSEE, TSEE, WSEE, SchemeConfig, m_u0_norm

WEAK = "weak"
STRONG = "strong"


@dataclass(frozen=True)
class ProfileSpec:
    """Parsed profile expression: spatial part plus optional time part."""

    name: str
    args: dict
    time: TimeProfile


@dataclass
class ExperimentConfig:
    grid_points: int
    box_length: float
    q: float
    mode: str                      # weak | strong
    equation: str                  # tsee | msee | wsee
    nonlinearity: bool
    noise_count: int
    B_profiles: list
    b_profiles: list
    J_profile: ProfileSpec
    u0_profile: ProfileSpec
    kernel_form: str
    kernel_amplitude: float
    kernel_rate: float
    scheme: str
    dt: float
    cutoff: int
    tau_m: float | None            # None = auto (8 sqrt(T))
    horizon: float
    paths: int
    base_seed: int
    out_dir: str
    stride: int
    save_fields: bool


_PROFILE_RE = re.compile(r"^\s*([a-z0-9-]+)\s*(?:\((.*)\))?\s*$")


def _finite(raw: str) -> float:
    value = float(raw)
    if not np.isfinite(value):
        raise ConfigurationError("expected a finite number")
    return value


def _parse_args(body: str) -> dict:
    args = {}
    if not body or not body.strip():
        return args
    for piece in body.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigurationError(f"profile argument {piece!r} needs key=value")
        key, val = piece.split("=", 1)
        key = key.strip()
        val = val.strip()
        parts = val.split()
        try:
            nums = [_finite(p) for p in parts]
        except ValueError as exc:
            raise ConfigurationError(f"non-numeric profile argument {val!r}") from exc
        args[key] = nums[0] if len(nums) == 1 else tuple(nums)
    return args


def parse_profile(text: str) -> ProfileSpec:
    """Parse 'name(args) [* timeprofile]'."""
    time_part = TimeProfile()
    spatial_text = text
    if "*" in text:
        spatial_text, time_text = text.split("*", 1)
        time_text = time_text.strip()
        m = _PROFILE_RE.match(time_text)
        if not m:
            raise ConfigurationError(f"bad time profile {time_text!r}")
        kind, body = m.group(1), m.group(2)
        if kind == "const":
            time_part = TimeProfile()
        elif kind in ("cos", "sin", "exp"):
            if body is None or not body.strip():
                raise ConfigurationError(f"time profile {kind!r} needs a rate")
            try:
                rate = _finite(body)
            except ValueError as exc:
                raise ConfigurationError(
                    f"non-numeric time profile rate {body!r}") from exc
            time_part = TimeProfile(kind, rate)
        else:
            raise ConfigurationError(f"unknown time profile {kind!r}")
    m = _PROFILE_RE.match(spatial_text)
    if not m:
        raise ConfigurationError(f"bad profile {text!r}")
    name, body = m.group(1), m.group(2)
    return ProfileSpec(name=name, args=_parse_args(body or ""),
                       time=time_part)


def _coords(grid: GridSpec):
    x = grid.axes()
    n = grid.points_per_axis
    return (x.reshape(n, 1, 1), x.reshape(1, n, 1), x.reshape(1, 1, n))


def _band_limited(grid: GridSpec, p: ProfileSpec, stream: int,
                  lead: tuple) -> np.ndarray:
    """The physical (lead..., n, n, n) draw of a band-limited-random profile:
    complex normals drawn on the full grid, so the RNG stream is the one of
    a full-grid draw, kept on the cube |fftfreq index| <= max_mode and
    transformed by the pruned passes (bitwise the masked full-grid ifft)."""
    n = grid.points_per_axis
    shape = lead + (n, n, n)
    rng = np.random.default_rng([int(p.args.get("seed", 0)), stream])
    cube = cube_space(grid, int(p.args.get("max_mode", 1)))
    hat = (cube.gather(rng.standard_normal(shape))
           + 1j * cube.gather(rng.standard_normal(shape)))
    if cube.covers:
        return ifft_array(hat)
    m = cube.modes_per_axis
    return ifft_cube(hat, n, cube_scratch(int(np.prod(lead)), n, m))


def _scalar_profile(grid: GridSpec, p: ProfileSpec) -> np.ndarray:
    """Real scalar field on the grid (the gauge multipliers B_j)."""
    n = grid.points_per_axis
    shape = (n, n, n)
    if p.name == "zero":
        return np.zeros(shape)
    if p.name == "constant":
        return float(p.args.get("value", 1.0)) * np.ones(shape)
    if p.name == "plane-wave":
        amp = float(p.args.get("amplitude", 1.0))
        mode = p.args.get("mode", (1.0, 0.0, 0.0))
        mode = (mode,) * 3 if np.isscalar(mode) else mode
        phase = float(p.args.get("phase", 0.0))
        kx, ky, kz = (2.0 * np.pi * m / grid.box_length for m in mode)
        x, y, z = _coords(grid)
        return amp * np.cos(kx * x + ky * y + kz * z + phase)
    if p.name == "gaussian-bump":
        amp = float(p.args.get("amplitude", 1.0))
        width = float(p.args.get("width", 0.25))
        center = p.args.get("center", (0.5, 0.5, 0.5))
        center = (center,) * 3 if np.isscalar(center) else center
        x, y, z = _coords(grid)
        L = grid.box_length
        out = np.zeros(shape)
        # periodize over neighbour images so the bump is smooth on the torus
        for ix in (-1, 0, 1):
            for iy in (-1, 0, 1):
                for iz in (-1, 0, 1):
                    dx = x - (center[0] + ix) * L
                    dy = y - (center[1] + iy) * L
                    dz = z - (center[2] + iz) * L
                    out += np.exp(-(dx**2 + dy**2 + dz**2) / (2 * (width * L) ** 2))
        return amp * out
    if p.name == "band-limited-random":
        amp = float(p.args.get("amplitude", 1.0))
        f = _band_limited(grid, p, 101, ()).real
        peak = np.max(np.abs(f))
        return amp * f / peak if peak > 0 else np.zeros(shape)
    raise ConfigurationError(f"unknown scalar profile {p.name!r}")


def _field_profile(grid: GridSpec, p: ProfileSpec) -> Field6:
    """Six-component complex field on the grid (b_j, J, u0 shapes)."""
    n = grid.points_per_axis
    if p.name == "zero":
        return zero_field(grid)
    if p.name == "constant":
        value = p.args.get("value", 1.0)
        data = np.zeros((6, n, n, n), dtype=np.complex128)
        if np.isscalar(value):
            comp = p.args.get("component")
            if comp is None:
                data[:] = value
            else:
                data[int(comp)] = value
        else:
            if len(value) != 6:
                raise ConfigurationError(
                    "constant field value needs 1 or 6 numbers")
            for c, v in enumerate(value):
                data[c] = v
        return Field6(grid, PHYSICAL, data)
    if p.name == "plane-wave":
        amp = float(p.args.get("amplitude", 1.0))
        mode = p.args.get("mode", (1.0, 0.0, 0.0))
        mode = (mode,) * 3 if np.isscalar(mode) else mode
        comp = int(p.args.get("component", 0))
        phase = float(p.args.get("phase", 0.0))
        kx, ky, kz = (2.0 * np.pi * m / grid.box_length for m in mode)
        x, y, z = _coords(grid)
        data = np.zeros((6, n, n, n), dtype=np.complex128)
        data[comp] = amp * np.exp(1j * (kx * x + ky * y + kz * z + phase))
        return Field6(grid, PHYSICAL, data)
    if p.name == "gaussian-bump":
        bump = _scalar_profile(grid, p)
        comp = p.args.get("component")
        data = np.zeros((6, n, n, n), dtype=np.complex128)
        if comp is None:
            data[:] = bump
        else:
            data[int(comp)] = bump
        return Field6(grid, PHYSICAL, data)
    if p.name == "band-limited-random":
        amp = float(p.args.get("amplitude", 1.0))
        data = _band_limited(grid, p, 606, (6,))
        norm = np.sqrt(grid.cell_volume) * np.linalg.norm(data)
        if norm > 0:
            data *= amp
            data /= norm
        return Field6(grid, PHYSICAL, data)
    raise ConfigurationError(f"unknown field profile {p.name!r}")


_BAND_LIMITED_NAMES = ("zero", "constant", "plane-wave", "band-limited-random")


def _switch(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("on", "true", "1"):
        return True
    if word in ("off", "false", "0"):
        return False
    raise ConfigurationError("expected on/true/1 or off/false/0")


def _auto_or_float(raw: str) -> float | None:
    word = raw.strip().lower()
    return None if word == "auto" else _finite(word)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate the experiment config; raises ValidationError with
    assumption-tagged messages on failure."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.optionxform = str  # keep B_j and b_j distinct
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc

    def get(section, key, default=None, cast=str):
        if cp.has_option(section, key):
            raw = cp.get(section, key)
        elif default is None:
            raise ConfigurationError(f"missing [{section}] {key}")
        else:
            raw = default
        try:
            return cast(raw)
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"[{section}] {key} = {raw!r}: {exc}") from exc

    grid_points = get("grid", "points", cast=int)
    box_length = get("grid", "length", cast=_finite)
    q = get("model", "q", cast=_finite)
    mode = get("model", "mode", default=WEAK).strip().lower()
    equation = get("model", "equation", default=TSEE).strip().lower()
    nonlinearity = get("model", "nonlinearity", default="on", cast=_switch)

    count = get("noise", "count", cast=int)
    B_profiles = [get("noise", f"B_{j + 1}", cast=parse_profile)
                  for j in range(count)]
    b_profiles = [get("noise", f"b_{j + 1}", cast=parse_profile)
                  for j in range(count)]
    J_profile = get("noise", "J", default="zero", cast=parse_profile)
    u0_profile = get("noise", "u0", default="zero", cast=parse_profile)

    kernel_form = get("kernel", "form", default="zero").strip().lower()
    kernel_amplitude = get("kernel", "amplitude", default="0.0", cast=_finite)
    kernel_rate = get("kernel", "rate", default="0.0", cast=_finite)

    scheme = get("scheme", "type", default="euler_maruyama").strip().lower()
    dt = get("scheme", "dt", cast=_finite)
    cutoff = get("scheme", "cutoff", cast=int)
    tau_m = get("scheme", "tau_m", default="auto", cast=_auto_or_float)
    horizon = get("scheme", "horizon", default="1.0", cast=_finite)

    paths = get("monte_carlo", "paths", default="1", cast=int)
    base_seed = get("monte_carlo", "base_seed", default="0", cast=int)

    out_dir = get("outputs", "directory", default="out")
    stride = get("outputs", "stride", default="1", cast=int)
    save_fields = get("outputs", "save_fields", default="off", cast=_switch)

    cfg = ExperimentConfig(
        grid_points=grid_points, box_length=box_length, q=q, mode=mode,
        equation=equation, nonlinearity=nonlinearity,
        noise_count=count, B_profiles=B_profiles, b_profiles=b_profiles,
        J_profile=J_profile, u0_profile=u0_profile,
        kernel_form=kernel_form, kernel_amplitude=kernel_amplitude,
        kernel_rate=kernel_rate, scheme=scheme, dt=dt, cutoff=cutoff,
        tau_m=tau_m, horizon=horizon, paths=paths, base_seed=base_seed,
        out_dir=out_dir, stride=stride,
        save_fields=save_fields,
    )
    violations = validate_config(cfg)
    if violations:
        raise ValidationError(violations)
    return cfg


def validate_config(cfg: ExperimentConfig) -> list:
    """Assumption-tagged validation; returns a list of violation strings."""
    v = []
    n = cfg.grid_points
    if n < 4 or n & (n - 1):
        v.append(f"[grid] points must be a power of two >= 4, got {n}")
    if cfg.box_length <= 0:
        v.append(f"[grid] length must be positive, got {cfg.box_length}")
    if cfg.mode not in (WEAK, STRONG):
        v.append(f"[model] unknown mode {cfg.mode!r}")
    if cfg.equation not in (TSEE, MSEE, WSEE):
        v.append(f"[model] unknown equation {cfg.equation!r}")
    if cfg.nonlinearity:
        if cfg.mode == STRONG and not (1.0 < cfg.q <= 2.0):
            v.append(f"[M1] violated: q={cfg.q} in strong mode (need q in (1, 2])")
        if cfg.q <= 0:
            v.append(f"[W-assumptions] violated: q={cfg.q} must be positive")
    if cfg.mode == STRONG and cfg.q == 2.0 and cfg.nonlinearity:
        for j, p in enumerate(cfg.b_profiles):
            if p.name not in _BAND_LIMITED_NAMES:
                v.append(
                    f"[M5] violated: q=2 requires band-limited b_{j + 1}, "
                    f"got profile {p.name!r}")
    if cfg.mode == STRONG and cfg.kernel_form not in (ZERO, EXPONENTIAL):
        v.append(f"[M3] violated: strong mode needs a W^{{1,1}} kernel form, "
                 f"got {cfg.kernel_form!r}")
    if cfg.kernel_form not in (ZERO, EXPONENTIAL):
        v.append(f"[kernel] unknown form {cfg.kernel_form!r}")
    if cfg.dt <= 0 or cfg.horizon <= 0:
        v.append("[scheme] dt and horizon must be positive")
    elif cfg.horizon / cfg.dt > MAX_STEPS:  # before any time grid is formed
        v.append(f"[scheme] dt={cfg.dt} takes more than {MAX_STEPS} steps "
                 f"over horizon={cfg.horizon}")
    else:
        steps = cfg.horizon / cfg.dt
        if abs(steps - round(steps)) > 1e-9:
            v.append(f"[scheme] dt={cfg.dt} does not divide horizon={cfg.horizon}")
    if cfg.cutoff < 1:
        v.append("[scheme] cutoff level must be >= 1")
    elif cfg.cutoff > MAX_LEVEL:
        # bounded before 2^cutoff is formed, which can overflow a float
        v.append(f"[scheme] cutoff level {cfg.cutoff} would overflow 2^n")
    elif cfg.box_length > 0 and n >= 4:
        nyquist = np.pi * n / cfg.box_length
        if 2.0**cfg.cutoff > nyquist:
            v.append(f"[scheme] cutoff scale 2^{cfg.cutoff} exceeds Nyquist "
                     f"{nyquist:.3f}")
    if cfg.tau_m is not None and not cfg.tau_m > 0:
        v.append(f"[scheme] tau_m must be positive or auto, got {cfg.tau_m}")
    if cfg.paths < 1:
        v.append("[monte_carlo] paths must be >= 1")
    if cfg.base_seed < 0:
        v.append(f"[monte_carlo] base_seed must be a whole number >= 0, got "
                 f"{cfg.base_seed}")
    if cfg.noise_count < 0:
        v.append(f"[noise] count must be >= 0, got {cfg.noise_count}")
    if cfg.stride < 1:
        v.append(f"[outputs] stride must be >= 1, got {cfg.stride}")
    profiles = [("u0", cfg.u0_profile, False), ("J", cfg.J_profile, False)]
    profiles += [(f"b_{j + 1}", p, False) for j, p in enumerate(cfg.b_profiles)]
    profiles += [(f"B_{j + 1}", p, True) for j, p in enumerate(cfg.B_profiles)]
    for key, p, scalar in profiles:
        v += [f"[noise] {key}: {problem}"
              for problem in _profile_problems(p, scalar)]
    return v


def _whole(value, low: float, high: float) -> bool:
    return (isinstance(value, float) and value.is_integer()
            and low <= value <= high)


def _shown(value) -> str:
    """A profile argument as it was written: one number or several."""
    return " ".join(f"{x:g}" for x in np.atleast_1d(value))


def _profile_problems(p: ProfileSpec, scalar: bool) -> list:
    """What is wrong with the arguments of one profile expression; a scalar
    profile (a B_j) takes one number as its constant ``value``, a field
    profile one or six."""
    problems = []
    args = p.args
    for name in ("amplitude", "phase"):
        if name in args and np.size(args[name]) != 1:
            problems.append(f"{name} must be one number, got "
                            f"{_shown(args[name])}")
    if p.name == "constant" and "value" in args:
        counts, wanted = ((1,), "one number") if scalar else \
            ((1, 6), "one number or six")
        if np.size(args["value"]) not in counts:
            problems.append(f"value needs {wanted}, got "
                            f"{_shown(args['value'])}")
    if p.name == "band-limited-random" and not _whole(
            args.get("max_mode", 1.0), 0, np.inf):
        problems.append(f"band-limited-random needs a whole max_mode >= 0, "
                        f"got {_shown(args['max_mode'])}")
    if "seed" in args and not _whole(args["seed"], 0, np.inf):
        problems.append(f"seed must be a whole number >= 0, got "
                        f"{_shown(args['seed'])}")
    if "component" in args and not _whole(args["component"], 0, 5):
        problems.append(f"component must be a whole number in 0..5, got "
                        f"{_shown(args['component'])}")
    for name in ("mode", "center"):
        if name in args and np.size(args[name]) not in (1, 3):
            problems.append(f"{name} needs one number or three, got "
                            f"{_shown(args[name])}")
    if "width" in args and not (np.size(args["width"]) == 1
                                and args["width"] > 0):
        problems.append(f"width must be one number > 0, got "
                        f"{_shown(args['width'])}")
    return problems


@dataclass
class RuntimeModel:
    """Instantiated model: everything ``run_paths`` needs to integrate the
    experiment's paths."""

    grid: GridSpec
    spec: NoiseSpec
    kernel: KernelSpec
    scheme: SchemeConfig
    horizon: float
    steps: int
    base_seed: int
    stride: int                    # steps between written checkpoints


def build_runtime(cfg: ExperimentConfig) -> RuntimeModel:
    grid = make_grid(cfg.grid_points, cfg.box_length)

    def checked(key, shape):
        """A built profile, refused when its norm overflows on the grid (a
        value near the float limit) before any run."""
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(getattr(shape, "data", shape))
        if not np.isfinite(norm):
            raise ConfigurationError(f"[noise] {key}: the profile's L^2 norm "
                                     f"overflows on the grid")
        return shape

    B_fields = [checked(f"B_{j + 1}", _scalar_profile(grid, p))
                for j, p in enumerate(cfg.B_profiles)]
    b_sources = [SeparableSource(shape=checked(f"b_{j + 1}",
                                               _field_profile(grid, p)),
                                 profile=p.time)
                 for j, p in enumerate(cfg.b_profiles)]
    current = SeparableSource(
        shape=checked("J", _field_profile(grid, cfg.J_profile)),
        profile=cfg.J_profile.time)
    u0 = checked("u0", _field_profile(grid, cfg.u0_profile))
    spec = make_noise_spec(grid, B_fields, b_sources, current, u0)

    if cfg.kernel_form == ZERO or cfg.kernel_amplitude == 0.0:
        kernel = KernelSpec()
    else:
        kernel = KernelSpec(form=EXPONENTIAL, amplitude=cfg.kernel_amplitude,
                            rate=cfg.kernel_rate)
    kerr = None
    if cfg.nonlinearity:
        kerr = KerrExponent(cfg.q, strong_mode=(cfg.mode == STRONG))
    scheme = SchemeConfig(scheme=cfg.scheme, dt=cfg.dt,
                          cutoff_level=CutoffLevel(cfg.cutoff),
                          equation=cfg.equation, kerr=kerr,
                          beta_truncation_m=cfg.tau_m)
    steps = int(round(cfg.horizon / cfg.dt))
    return RuntimeModel(grid=grid, spec=spec, kernel=kernel, scheme=scheme,
                        horizon=cfg.horizon, steps=steps,
                        base_seed=cfg.base_seed, stride=cfg.stride)


def assumption_echo(cfg: ExperimentConfig, model: RuntimeModel):
    """Status of every assumption tag: validated / violated / not machine-checkable."""
    rows = []

    def add(tag, status, detail):
        rows.append({"tag": tag, "status": status, "detail": detail})

    add("W1", "validated",
        "domain is the periodic torus [0, L)^3; boundary traces are vacuous")
    add("W2", "not machine-checkable",
        "F_0-measurability; deterministic profiles are trivially measurable")
    add("M2", "validated",
        f"||m u0||={m_u0_norm(model.spec):.6g}, "
        f"||u0||_{{2(q+1)}}={lp_norm(model.spec.u0, 2 * (cfg.q + 1)):.6g}")
    add("W3", "validated", f"kernel form {cfg.kernel_form!r} has finite L^1 norm")
    add("M3", "validated" if cfg.kernel_form in (ZERO, EXPONENTIAL) else "violated",
        "closed kernel forms are W^{1,1} in time")
    add("W4", "validated",
        "linear noise b_j + i B_j u with Lipschitz constant max_j ||B_j||_inf")
    add("W5", "validated", "forcing J has finite L^2 norm on the grid")
    add("M4", "validated", "J uses a closed-form time profile with analytic derivative")
    if cfg.mode == STRONG:
        ok = 1.0 < cfg.q <= 2.0 or not cfg.nonlinearity
        add("M1", "validated" if ok else "violated",
            f"q={cfg.q} in strong mode")
        detail = "b_j profiles band-limited" if cfg.q == 2.0 else \
            f"b_j integrability class L^{{2(q+2)/(2-q)}} finite on the grid"
        add("M5", "validated", detail)
    else:
        add("M1", "validated", f"weak mode, q={cfg.q} > 0")
        add("M5", "validated", "weak mode places no extra condition on b_j")
    worst = max((band_limit_defect(model.grid, b) for b in
                 model.spec.B_fields), default=0.0)
    add("M6", "validated" if worst <= 1e-10 else "violated",
        f"B_j band-limited to half-Nyquist (max leakage {worst:.2e})")
    return rows
