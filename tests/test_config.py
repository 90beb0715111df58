import warnings
from pathlib import Path

import numpy as np
import pytest

from mks.config import (
    assumption_echo,
    build_runtime,
    parse_config,
    parse_profile,
    validate_config,
)
import mks.grid
import mks.operators
import mks.stepping
from mks.cli import main
import mks.config
from mks.config import (ProfileSpec, _field_profile, _last_spec,
                        _scalar_profile)
from mks.errors import ConfigurationError, MksError, ValidationError
from mks.grid import ifft_array, l2_norm, make_grid, to_spectral
from mks.harness import run_experiment
from mks.memory import KernelSpec
from mks.noise import TimeProfile
from mks.stepping import initial_coefficients

MINIMAL_WEAK = """
[grid]
points = 8
length = 6.283185307179586

[model]
q = 3.0
mode = weak
equation = msee

[noise]
count = 1
B_1 = zero
b_1 = zero
u0 = band-limited-random(seed=1, amplitude=0.5, max_mode=1)

[scheme]
type = euler_maruyama
dt = 0.0625
cutoff = 2
horizon = 0.5
"""

STRONG_TEMPLATE = """
[grid]
points = 8
length = 6.283185307179586

[model]
q = {q}
mode = strong
equation = tsee

[noise]
count = 1
B_1 = plane-wave(amplitude=0.2, mode=1 0 0)
b_1 = {b}
u0 = band-limited-random(seed=1, amplitude=0.5, max_mode=1)

[scheme]
type = euler_maruyama
dt = 0.0625
cutoff = 2
horizon = 0.5
"""


class TestParse:
    def test_minimal_weak_defaults(self):
        cfg = parse_config(MINIMAL_WEAK)
        assert cfg.q == 3.0
        assert cfg.J_profile.name == "zero"       # defaulted
        assert cfg.paths == 1 and cfg.base_seed == 0
        assert cfg.stride == 1 and not cfg.save_fields
        assert cfg.tau_m is None

    def test_strong_q3_rejected_with_tag(self):
        with pytest.raises(ValidationError) as info:
            parse_config(STRONG_TEMPLATE.format(q=3.0, b="zero"))
        assert any("[M1]" in v for v in info.value.violations)

    def test_strong_q2_bump_amplitude_rejected_with_tag(self):
        with pytest.raises(ValidationError) as info:
            parse_config(STRONG_TEMPLATE.format(
                q=2.0, b="gaussian-bump(amplitude=0.1, width=0.3)"))
        assert any("[M5]" in v for v in info.value.violations)

    def test_strong_q2_band_limited_accepted(self):
        cfg = parse_config(STRONG_TEMPLATE.format(
            q=2.0, b="constant(value=0.1)"))
        assert cfg.mode == "strong"

    def test_tsee_with_a_memory_kernel_runs(self, tmp_path):
        # the stepper carries G * u under every equation, tsee included
        text = (STRONG_TEMPLATE.format(q=2.0, b="constant(value=0.1)")
                + "\n[kernel]\nform = exponential\namplitude = 0.5\n"
                "rate = 1.0\n")
        cfg = parse_config(text)
        assert (cfg.equation, cfg.kernel_amplitude) == ("tsee", 0.5)
        cfg_file = tmp_path / "tsee_kernel.cfg"
        cfg_file.write_text(text)
        assert main(["run", "--config", str(cfg_file),
                     "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("kernel, built", [
        ("", False),
        ("form = zero\namplitude = 0.5\nrate = 1.0\n", False),
        ("form = exponential\namplitude = 0.0\nrate = 1.0\n", False),
        ("form = exponential\namplitude = -0.0\nrate = 1.0\n", False),
        ("form = exponential\namplitude = 0.5\nrate = 1.5\n", True),
    ], ids=["default", "zero-form", "zero-amplitude", "negative-zero",
            "exponential"])
    def test_no_memory_builds_no_kernel(self, kernel, built):
        # no memory has one shape, None; an exponential law builds its
        # kernel with the identity coupling
        model = build_runtime(parse_config(MINIMAL_WEAK + "\n[kernel]\n"
                                           + kernel))
        if not built:
            assert model.kernel is None
        else:
            assert isinstance(model.kernel, KernelSpec)
            assert (model.kernel.amplitude, model.kernel.rate) == (0.5, 1.5)
            assert np.array_equal(model.kernel.coupling, np.eye(6))

    def test_missing_key(self):
        with pytest.raises(ConfigurationError):
            parse_config("[grid]\npoints = 8\n")

    def test_malformed_document(self):
        with pytest.raises(ConfigurationError):
            parse_config("points = 8\nnot a section")

    def test_dt_must_divide_horizon(self):
        text = MINIMAL_WEAK.replace("dt = 0.0625", "dt = 0.03")
        with pytest.raises(ValidationError) as info:
            parse_config(text)
        assert any("divide" in v for v in info.value.violations)

    def test_cutoff_above_nyquist(self):
        text = MINIMAL_WEAK.replace("cutoff = 2", "cutoff = 3")
        with pytest.raises(ValidationError) as info:
            parse_config(text)
        assert any("Nyquist" in v for v in info.value.violations)


class TestProfiles:
    def test_time_profile_parsing(self):
        p = parse_profile("constant(value=0.5) * cos(2.0)")
        assert p.name == "constant"
        assert p.time.kind == "cos" and p.time.rate == 2.0

    def test_vector_argument(self):
        p = parse_profile("plane-wave(amplitude=1.0, mode=1 0 2)")
        assert p.args["mode"] == (1.0, 0.0, 2.0)

    def test_unknown_time_profile(self):
        with pytest.raises(ConfigurationError):
            parse_profile("zero * sawtooth(1.0)")

    def test_bad_argument(self):
        with pytest.raises(ConfigurationError):
            parse_profile("constant(value=banana)")

    def test_build_runtime_instantiates_fields(self):
        cfg = parse_config(STRONG_TEMPLATE.format(
            q=2.0, b="constant(value=0.1) * cos(1.0)"))
        model = build_runtime(cfg)
        assert model.spec.count == 1
        assert np.isclose(l2_norm(model.spec.u0), 0.5)  # amplitude = L2 norm
        assert model.steps == 8
        assert model.scheme.kerr.q == 2.0
        # plane-wave multiplier instantiated as a real cosine
        assert np.max(np.abs(model.spec.B_fields[0].imag
                             if np.iscomplexobj(model.spec.B_fields[0])
                             else 0.0)) == 0.0
        assert np.isclose(np.max(model.spec.B_fields[0]), 0.2, atol=1e-12)

    def test_gaussian_bump_is_periodic(self):
        from mks.config import ProfileSpec, _scalar_profile
        from mks.grid import make_grid
        from mks.noise import TimeProfile

        g = make_grid(16, 2 * np.pi)
        p = ProfileSpec(name="gaussian-bump",
                        args={"amplitude": 1.0, "width": 0.15,
                              "center": (0.0, 0.5, 0.5)},
                        time=TimeProfile())
        f = _scalar_profile(g, p)
        # the bump sits on the seam; periodization keeps it smooth there
        assert np.isclose(f[0, 8, 8], f.max())
        assert f.max() <= 1.0 + 1e-6


def _masked_synthesis(grid, seed, stream, max_mode, lead):
    """The full-grid band-limited draw the profiles made before the pruned
    passes: normals on every mode, masked to |k_i| <= 2 pi max_mode / L."""
    n = grid.points_per_axis
    shape = lead + (n, n, n)
    rng = np.random.default_rng([seed, stream])
    kx, ky, kz = grid.k_components()
    lim = 2.0 * np.pi * max_mode / grid.box_length + 1e-12
    mask = (np.abs(kx) <= lim) & (np.abs(ky) <= lim) & (np.abs(kz) <= lim)
    hat = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask
    return ifft_array(hat)


def masked_field_profile(grid, seed, amplitude, max_mode):
    data = _masked_synthesis(grid, seed, 606, max_mode, (6,))
    norm = np.sqrt(grid.cell_volume) * np.linalg.norm(data)
    return amplitude * data / norm if norm > 0 else data


def masked_scalar_profile(grid, seed, amplitude, max_mode):
    f = _masked_synthesis(grid, seed, 101, max_mode, ()).real
    peak = np.max(np.abs(f))
    return amplitude * f / peak if peak > 0 else np.zeros(f.shape)


class TestBandLimitedRandom:
    """The profiles draw the full grid's normals and transform only the cube
    |fftfreq index| <= max_mode, bitwise equal to the masked full-grid
    synthesis, zero signs included; from n/2 on the cube covers the grid."""

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("box", [2.0 * np.pi, 4.0 * np.pi])
    @pytest.mark.parametrize("max_mode", [0, 1, 3, 7, 16])
    def test_equal_to_the_masked_full_grid_synthesis(self, n, box, max_mode):
        grid = make_grid(n, box)
        p = ProfileSpec("band-limited-random",
                        {"seed": 5.0, "amplitude": 0.3,
                         "max_mode": float(max_mode)}, TimeProfile())
        field = _field_profile(grid, p).data
        scalar = _scalar_profile(grid, p)
        expected = masked_field_profile(grid, 5, 0.3, max_mode)
        assert field.tobytes() == expected.tobytes()
        expected = masked_scalar_profile(grid, 5, 0.3, max_mode)
        assert scalar.tobytes() == expected.tobytes()


LINEAR_32 = """
[grid]
points = 32
length = 6.283185307179586

[model]
q = 2.0
mode = weak
equation = tsee
nonlinearity = off

[noise]
count = 2
B_1 = zero
B_2 = zero
b_1 = band-limited-random(seed=11, amplitude=0.1, max_mode=2) * cos(1.0)
b_2 = band-limited-random(seed=12, amplitude=0.1, max_mode=3) * sin(2.0)
J = band-limited-random(seed=13, amplitude=0.2, max_mode=2)
u0 = band-limited-random(seed=14, amplitude=1.0, max_mode=3)

[scheme]
type = euler_maruyama
dt = 0.015625
cutoff = 3
horizon = 0.125

[monte_carlo]
paths = 2
base_seed = 5

[outputs]
stride = 4
"""

CACHE_RUN = STRONG_TEMPLATE.format(
    q=2.0, b="band-limited-random(seed=4, amplitude=0.1, max_mode=1) * "
    "cos(1.0)")


class TestSpecCache:
    """build_runtime keeps the NoiseSpec of the last config built, keyed by
    the grid and the field profiles as written; the rest of the model comes
    from the config on every call."""

    def test_repeated_config_reuses_the_spec(self, monkeypatch):
        _last_spec.clear()
        first = build_runtime(parse_config(CACHE_RUN))
        calls = []
        for name in ("_field_profile", "_scalar_profile"):
            original = getattr(mks.config, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(mks.config, name, counted)
        second = build_runtime(parse_config(CACHE_RUN))
        assert second.spec is first.spec and second is not first
        assert calls == []

    def test_pool_workers_reuse_the_parent_spec(self, tmp_path,
                                                monkeypatch):
        # forked workers inherit the spec run_experiment built, so a pool
        # run builds the fields once, not once per worker as well
        monkeypatch.setattr(mks.stepping, "BATCH_VALUES", 6 * 8**3)
        cfg = parse_config(CACHE_RUN)
        cfg.paths = 4
        run_experiment(cfg, workers=1, out_dir=tmp_path / "serial")

        def refused(*args):
            raise AssertionError("a worker built a profile")

        for name in ("_field_profile", "_scalar_profile"):
            monkeypatch.setattr(mks.config, name, refused)
        _, status = run_experiment(cfg, workers=2, out_dir=tmp_path / "pool")
        assert status == 0
        for name in ("series.csv", "summary.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "pool" / name).read_bytes()

    def test_another_config_replaces_the_spec(self):
        first = build_runtime(parse_config(CACHE_RUN))
        build_runtime(parse_config(MINIMAL_WEAK))
        assert build_runtime(parse_config(CACHE_RUN)).spec is not first.spec

    @pytest.mark.parametrize("old,new", [
        ("seed=1,", "seed=2,"),
        ("amplitude=0.5", "amplitude=0.25"),
        ("cos(1.0)", "cos(1.5)"),
        ("points = 8", "points = 16"),
        ("length = 6.283185307179586", "length = 6.0"),
        ("amplitude=0.1", "amplitude=0.10000000000000002"),
    ])
    def test_each_field_value_keys_the_spec(self, old, new):
        assert old in CACHE_RUN
        first = build_runtime(parse_config(CACHE_RUN))
        changed = build_runtime(parse_config(CACHE_RUN.replace(old, new)))
        assert changed.spec is not first.spec

    def test_signed_zero_keys_the_spec(self):
        # -0.0 == 0.0, but the two write fields of opposite signs
        plus, minus = (build_runtime(parse_config(MINIMAL_WEAK.replace(
            "B_1 = zero", f"B_1 = plane-wave(amplitude={amplitude})"))).spec
            for amplitude in ("0.0", "-0.0"))
        assert minus is not plus
        assert np.array_equal(np.signbit(minus.B_fields[0]),
                              ~np.signbit(plus.B_fields[0]))

    @pytest.mark.parametrize("name,value,read", [
        ("base_seed", 99, lambda m: m.base_seed),
        ("stride", 2, lambda m: m.stride),
        ("dt", 0.03125, lambda m: (m.scheme.dt, m.steps)),
        ("kernel_form", "exponential", lambda m: m.kernel is None),
    ])
    def test_run_values_come_from_the_config(self, name, value, read):
        cfg = parse_config(CACHE_RUN)
        cfg.kernel_amplitude = 0.5
        first = build_runtime(cfg)
        setattr(cfg, name, value)
        second = build_runtime(cfg)
        assert second.spec is first.spec
        assert read(second) != read(first)

    def test_path_count_comes_from_the_config(self, tmp_path):
        cfg = parse_config(CACHE_RUN)
        spec = build_runtime(cfg).spec
        for paths in (1, 2):
            cfg.paths = paths
            report, _ = run_experiment(cfg, workers=1,
                                       out_dir=tmp_path / str(paths))
            assert len(report.paths) == paths
        assert build_runtime(cfg).spec is spec

    @pytest.mark.parametrize("config", [
        "example_strong.cfg", "example_weak.cfg", "linear_32"])
    def test_cold_and_warm_runs_write_the_same_bytes(self, config, tmp_path):
        if config == "linear_32":
            text = LINEAR_32
        else:
            text = (Path(__file__).resolve().parents[1] / "configs"
                    / config).read_text()
        _last_spec.clear()  # the first run builds, the second reuses
        outputs = []
        for run in ("cold", "warm"):
            cfg = parse_config(text)
            cfg.save_fields = True
            run_experiment(cfg, workers=1, out_dir=tmp_path / run)
            outputs.append({f.relative_to(tmp_path / run): f.read_bytes()
                            for f in sorted((tmp_path / run).rglob("*"))
                            if f.is_file()})
        cold, warm = outputs
        assert Path("checkpoints", "index.csv") in cold
        assert {Path("series.csv"), Path("summary.csv"),
                Path("assumptions.csv")} <= set(cold)
        assert cold == warm


class TestAssumptionEcho:
    def test_m_u0_norm_is_computed_once(self, monkeypatch):
        # the start state's curl-energy check and the M2 row share it
        calls = {"n": 0}
        original = mks.stepping.maxwell_apply

        def counted(f):
            calls["n"] += 1
            return original(f)

        for module in (mks.stepping, mks.operators):
            monkeypatch.setattr(module, "maxwell_apply", counted)
        _last_spec.clear()  # a fresh spec, whatever ran before
        cfg = parse_config(MINIMAL_WEAK)
        model = build_runtime(cfg)
        rows = {r["tag"]: r["detail"] for r in assumption_echo(cfg, model)}
        initial_coefficients(model.spec, model.scheme.equation,
                             model.scheme.cutoff_level)
        assumption_echo(cfg, model)
        assert calls["n"] == 1
        norm = l2_norm(original(to_spectral(model.spec.u0)))
        assert rows["M2"].startswith(f"||m u0||={norm:.6g}, ")

    def test_all_tags_present(self):
        cfg = parse_config(STRONG_TEMPLATE.format(q=2.0, b="constant(value=0.1)"))
        model = build_runtime(cfg)
        rows = assumption_echo(cfg, model)
        tags = {r["tag"] for r in rows}
        assert tags == {"W1", "W2", "W3", "W4", "W5", "M1", "M2", "M3", "M4",
                        "M5", "M6"}
        statuses = {r["tag"]: r["status"] for r in rows}
        assert statuses["W2"] == "not machine-checkable"
        assert statuses["M6"] == "validated"

    @pytest.mark.parametrize("B,scalar_transforms", [
        ("zero", False), ("plane-wave(amplitude=0.1)", True)])
    def test_zero_multiplier_costs_no_transform(self, monkeypatch, B,
                                                scalar_transforms):
        # a B_j is the only scalar field that is transformed: its band-limit
        # check and its gradient, in build_runtime and in the M6 row
        shapes = []
        kernel = mks.grid._c2c

        def counted(data, *args):
            shapes.append(data.shape)
            return kernel(data, *args)

        monkeypatch.setattr(mks.grid, "_c2c", counted)
        cfg = parse_config(MINIMAL_WEAK.replace("B_1 = zero", f"B_1 = {B}"))
        assumption_echo(cfg, build_runtime(cfg))
        assert any(len(shape) == 3 for shape in shapes) is scalar_transforms

    def test_violated_kernel_reported(self):
        cfg = parse_config(MINIMAL_WEAK)
        model = build_runtime(cfg)
        cfg.kernel_form = "table"
        rows = assumption_echo(cfg, model)
        statuses = {r["tag"]: r["status"] for r in rows}
        assert statuses["M3"] == "violated"


class TestValidateDirect:
    def test_returns_all_violations(self):
        cfg = parse_config(MINIMAL_WEAK)
        cfg.q = -1.0
        cfg.paths = 0
        v = validate_config(cfg)
        assert len(v) >= 2


def _with_key(section, line):
    """MINIMAL_WEAK with one extra ``key = value`` line in ``[section]``."""
    return MINIMAL_WEAK.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)


BAD_VALUES = [
    pytest.param(MINIMAL_WEAK.replace("points = 8", "points = eight"),
                 "[grid] points", "eight", id="points-eight"),
    pytest.param(_with_key("scheme", "tau_m = fast"), "[scheme] tau_m", "fast",
                 id="tau_m-fast"),
    pytest.param(_with_key("scheme", "tau_m = -1"), "tau_m", "-1",
                 id="tau_m-negative"),
    pytest.param(MINIMAL_WEAK.replace("b_1 = zero", "b_1 = zero * cos(fast)"),
                 "[noise] b_1", "fast", id="cos-fast"),
    pytest.param(_with_key("model", "nonlinearity = yes"),
                 "[model] nonlinearity", "yes", id="nonlinearity-yes"),
    pytest.param(MINIMAL_WEAK + "\n[outputs]\nsave_fields = yes\n",
                 "[outputs] save_fields", "yes", id="save_fields-yes"),
    pytest.param(MINIMAL_WEAK.replace("max_mode=1", "max_mode=-1"),
                 "[noise] u0", "-1", id="u0-max_mode-negative"),
    pytest.param(MINIMAL_WEAK.replace(
        "B_1 = zero", "B_1 = band-limited-random(seed=2, max_mode=1.5)"),
        "[noise] B_1", "1.5", id="B_1-max_mode-fraction"),
    pytest.param(MINIMAL_WEAK.replace("cutoff = 2", "cutoff = 100000"),
                 "[scheme] cutoff", "100000", id="cutoff-overflow"),
    pytest.param(MINIMAL_WEAK.replace("count = 1", "count = -1"),
                 "[noise] count", "-1", id="count-negative"),
    pytest.param(MINIMAL_WEAK.replace("dt = 0.0625", "dt = nan"),
                 "[scheme] dt", "nan", id="dt-nan"),
    pytest.param(MINIMAL_WEAK.replace("dt = 0.0625", "dt = inf"),
                 "[scheme] dt", "inf", id="dt-inf"),
    pytest.param(MINIMAL_WEAK.replace("dt = 0.0625", "dt = 1e-300"),
                 "[scheme] dt", "1e-300", id="dt-tiny"),
    pytest.param(MINIMAL_WEAK.replace("horizon = 0.5", "horizon = inf"),
                 "[scheme] horizon", "inf", id="horizon-inf"),
    pytest.param(MINIMAL_WEAK.replace("length = 6.283185307179586",
                                      "length = nan"),
                 "[grid] length", "nan", id="length-nan"),
    pytest.param(MINIMAL_WEAK + "\n[outputs]\nstride = 0\n",
                 "[outputs] stride", "0", id="stride-zero"),
    pytest.param(MINIMAL_WEAK + "\n[kernel]\nform = exponential\n"
                 "amplitude = 0.5\nrate = nan\n",
                 "[kernel] rate", "nan", id="kernel-rate-nan"),
    pytest.param(MINIMAL_WEAK + "\n[kernel]\nform = exponential\n"
                 "amplitude = nan\nrate = 1.0\n",
                 "[kernel] amplitude", "nan", id="kernel-amplitude-nan"),
    pytest.param(MINIMAL_WEAK.replace("b_1 = zero", "b_1 = constant(value=nan)"),
                 "[noise] b_1", "nan", id="constant-nan"),
    pytest.param(MINIMAL_WEAK.replace("b_1 = zero", "b_1 = zero * cos(nan)"),
                 "[noise] b_1", "nan", id="cos-nan"),
    pytest.param(MINIMAL_WEAK.replace("B_1 = zero",
                                      "B_1 = plane-wave(amplitude=nan)"),
                 "[noise] B_1", "nan", id="plane-wave-nan"),
    pytest.param(MINIMAL_WEAK + "\n[monte_carlo]\nbase_seed = -1\n",
                 "[monte_carlo] base_seed", "-1", id="base_seed-negative"),
    pytest.param(MINIMAL_WEAK.replace("seed=1,", "seed=-1,"),
                 "[noise] u0: seed", "-1", id="profile-seed-negative"),
    pytest.param(MINIMAL_WEAK.replace("seed=1,", "seed=1.5,"),
                 "[noise] u0: seed", "1.5", id="profile-seed-fraction"),
    pytest.param(MINIMAL_WEAK.replace(
        "b_1 = zero", "b_1 = gaussian-bump(width=0.2, component=7)"),
        "[noise] b_1: component", "7", id="component-seven"),
    pytest.param(MINIMAL_WEAK.replace(
        "b_1 = zero", "b_1 = plane-wave(component=1.5)"),
        "[noise] b_1: component", "1.5", id="component-fraction"),
    pytest.param(MINIMAL_WEAK.replace(
        "B_1 = zero", "B_1 = plane-wave(amplitude=0.1, mode=1 0)"),
        "[noise] B_1: mode", "1 0", id="mode-two-numbers"),
    pytest.param(MINIMAL_WEAK.replace(
        "b_1 = zero", "b_1 = gaussian-bump(center=0.5 0.5 0.5 0.5)"),
        "[noise] b_1: center", "0.5 0.5 0.5 0.5", id="center-four-numbers"),
    pytest.param(MINIMAL_WEAK.replace(
        "b_1 = zero", "b_1 = plane-wave(amplitude=1 2)"),
        "[noise] b_1: amplitude must be one number", "1 2",
        id="amplitude-two-numbers"),
    pytest.param(MINIMAL_WEAK.replace(
        "B_1 = zero", "B_1 = plane-wave(amplitude=0.1, phase=0 1)"),
        "[noise] B_1: phase must be one number", "0 1",
        id="phase-two-numbers"),
    pytest.param(MINIMAL_WEAK.replace(
        "B_1 = zero", "B_1 = constant(value=1 2)"),
        "[noise] B_1: value needs one number", "1 2",
        id="scalar-value-two-numbers"),
    pytest.param(MINIMAL_WEAK.replace(
        "b_1 = zero", "b_1 = constant(value=1 2)"),
        "[noise] b_1: value needs one number or six", "1 2",
        id="field-value-two-numbers"),
    pytest.param(MINIMAL_WEAK.replace(
        "b_1 = zero", "b_1 = gaussian-bump(width=0)"),
        "[noise] b_1: width must be one number > 0", "0",
        id="width-zero"),
]


class TestBadValues:
    @pytest.mark.parametrize("text,where,raw", BAD_VALUES)
    def test_tagged_error_names_key_and_value(self, text, where, raw):
        with pytest.raises(MksError) as info:
            parse_config(text)
        assert isinstance(info.value, ConfigurationError)
        assert where in str(info.value) and raw in str(info.value)

    @pytest.mark.parametrize("text,where,raw", BAD_VALUES)
    def test_run_exits_nonzero_without_traceback(self, text, where, raw,
                                                 tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(text)
        rc = main(["run", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2 and err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err and where in err
        assert not (tmp_path / "out").exists()

    def test_degenerate_max_mode_exits_2_with_one_error_line(
            self, tmp_path, capsys):
        # max_mode = -1 masks every mode: the run would start from u0 = 0
        text = MINIMAL_WEAK.replace("max_mode=1", "max_mode=-1").replace(
            "b_1 = zero", "b_1 = band-limited-random(seed=3, max_mode=0.5)")
        with pytest.raises(ValidationError) as info:
            parse_config(text)
        assert [v.split(":")[0] for v in info.value.violations] == \
            ["[noise] u0", "[noise] b_1"]
        cfg_file = tmp_path / "degenerate.cfg"
        cfg_file.write_text(text)
        rc = main(["run", "--config", str(cfg_file),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1 and err[0].startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["u0", "J", "b_1", "B_1"])
    def test_huge_profile_exits_2_without_a_warning(self, key, tmp_path,
                                                    capsys):
        # a finite value whose norm overflows on the grid is refused before
        # the run, with no numpy overflow warning on the way
        kept = "\n".join(line for line in MINIMAL_WEAK.splitlines()
                         if not line.startswith(f"{key} = "))
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(kept.replace(
            "[noise]\n", f"[noise]\n{key} = constant(value=1e300)\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--config", str(cfg_file),
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2 and len(err) == 1
        assert err[0].startswith(f"error: [noise] {key}: ")
        assert not (tmp_path / "out").exists()

    def test_tau_m_zero_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse_config(_with_key("scheme", "tau_m = 0"))
        assert any("tau_m" in v for v in info.value.violations)

    def test_tau_m_positive_and_auto_accepted(self):
        assert parse_config(_with_key("scheme", "tau_m = 2.5")).tau_m == 2.5
        assert parse_config(_with_key("scheme", "tau_m = auto")).tau_m is None


SWITCH_SPELLINGS = [("on", True), ("true", True), ("1", True),
                    ("off", False), ("false", False), ("0", False),
                    ("ON", True), ("Off", False)]


class TestSwitches:
    @pytest.mark.parametrize("word,value", SWITCH_SPELLINGS)
    def test_nonlinearity(self, word, value):
        cfg = parse_config(_with_key("model", f"nonlinearity = {word}"))
        assert cfg.nonlinearity is value

    @pytest.mark.parametrize("word,value", SWITCH_SPELLINGS)
    def test_save_fields(self, word, value):
        cfg = parse_config(MINIMAL_WEAK + f"\n[outputs]\nsave_fields = {word}\n")
        assert cfg.save_fields is value

    @pytest.mark.parametrize("word", ["yes", "no", "enabled", "2", ""])
    def test_unknown_word_rejected(self, word):
        with pytest.raises(ConfigurationError):
            parse_config(_with_key("model", f"nonlinearity = {word}"))
        with pytest.raises(ConfigurationError):
            parse_config(MINIMAL_WEAK + f"\n[outputs]\nsave_fields = {word}\n")
