"""Outside-in tracing of the ``mks`` package.

``Tracer.install`` wraps public functions at every place they are bound:
module attributes (``from .grid import to_spectral`` makes a second binding
in the importing module), values of module-level registries such as
``stepping._STEPPERS``, and methods on their class.  Each call records a
span ``[name, start, end, parent, info]`` in memory; ``restore`` puts every
original object back.  FFTs are counted at the ``grid.to_spectral`` /
``grid.to_physical`` seam, so the count does not depend on the FFT library
behind it.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

# span name -> (module, attribute) of a wrapped function
FUNCTIONS = {
    "grid.to_spectral": ("mks.grid", "to_spectral"),
    "grid.to_physical": ("mks.grid", "to_physical"),
    "grid.l2_norm": ("mks.grid", "l2_norm"),
    "grid.lp_norm": ("mks.grid", "lp_norm"),
    "grid.inner_product": ("mks.grid", "inner_product"),
    "grid.write_checkpoint": ("mks.grid", "write_checkpoint"),
    "operators.maxwell_apply": ("mks.operators", "maxwell_apply"),
    "operators.maxwell_group": ("mks.operators", "maxwell_group"),
    "multipliers.sharp_cutoff": ("mks.multipliers", "sharp_cutoff"),
    "multipliers.smooth_cutoff": ("mks.multipliers", "smooth_cutoff"),
    "kerr.kerr_force": ("mks.kerr", "kerr_force"),
    "kerr.implicit_kerr_solve": ("mks.kerr", "implicit_kerr_solve"),
    "noise.gauge_phase": ("mks.noise", "gauge_phase"),
    "noise.apply_gauge": ("mks.noise", "apply_gauge"),
    "noise.cross_drift_apply": ("mks.noise", "cross_drift_apply"),
    "noise.sample_brownian": ("mks.noise", "sample_brownian"),
    "memory.convolve_history": ("mks.memory", "convolve_history"),
    "stepping.run_path": ("mks.stepping", "run_path"),
    "stepping.step_euler_maruyama": ("mks.stepping", "step_euler_maruyama"),
    "stepping.step_lie_splitting": ("mks.stepping", "step_lie_splitting"),
    "config.build_runtime": ("mks.config", "build_runtime"),
    "config.assumption_echo": ("mks.config", "assumption_echo"),
    "harness.run_experiment": ("mks.harness", "run_experiment"),
}

# span name -> (module, class, attribute) of a wrapped method
METHODS = {
    "stepping.drift": ("mks.stepping", "StepContext", "drift"),
    "stepping.noise": ("mks.stepping", "StepContext", "noise"),
    "diagnostics.from_paths": ("mks.diagnostics", "RunReport", "from_paths"),
}


def _field_bytes(args, kwargs):
    return args[0].data.nbytes


def _history_length(args, kwargs):
    return len(args[0])


def _file_size(args, kwargs):
    return os.path.getsize(args[1])


# span name -> function of the call's arguments, evaluated after the call
INFO = {
    "grid.to_spectral": _field_bytes,
    "grid.to_physical": _field_bytes,
    "memory.convolve_history": _history_length,
    "grid.write_checkpoint": _file_size,
}


def _mks_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mks" or name.startswith("mks."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._undo = []         # callables that put one original back
        self._wrappers = {}     # id -> wrapper, kept alive so ids stay unique

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                rec[1] = start
                stack.pop()
                if info is not None:
                    rec[4] = info(args, kwargs)

        wrapper.__wrapped__ = fn
        self._wrappers[id(wrapper)] = wrapper
        return wrapper

    def _patch_attr(self, owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _patch_item(self, mapping, key, new):
        old = mapping[key]
        mapping[key] = new
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def install(self):
        """Wrap every target at every binding site in loaded mks modules."""
        import importlib

        modules = _mks_modules()
        for name, (mod_name, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch_attr(module, key, wrapper)
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch_item(value, k, wrapper)
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(mod_name), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._patch_attr(cls, attr, new)

    def restore(self):
        while self._undo:
            self._undo.pop()()
        self._stack.clear()

    def leftover_wrappers(self) -> list:
        """Binding sites that still hold a wrapper (empty after restore)."""
        found = []

        def is_wrapper(value):
            if isinstance(value, classmethod):
                value = value.__func__
            return id(value) in self._wrappers

        for module in _mks_modules():
            for key, value in vars(module).items():
                if is_wrapper(value):
                    found.append(f"{module.__name__}.{key}")
                elif isinstance(value, dict) and not key.startswith("__"):
                    found += [f"{module.__name__}.{key}[{k!r}]"
                              for k, v in value.items() if is_wrapper(v)]
                elif isinstance(value, type):
                    found += [f"{module.__name__}.{key}.{a}"
                              for a, v in vars(value).items() if is_wrapper(v)]
        return found


def _totals(spans):
    """Per span name: (calls, inclusive seconds, self seconds, info sum, info max)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, info) in enumerate(spans):
        calls, incl, own, isum, imax = out.get(name, (0, 0.0, 0.0, 0, 0))
        dur = end - start
        info = info or 0
        out[name] = (calls + 1, incl + dur, own + dur - child_time[i],
                     isum + info, max(imax, info))
    return out


def step_durations_ms(spans) -> list:
    return [1e3 * (end - start) for name, start, end, _, _ in spans
            if name in ("stepping.step_euler_maruyama",
                        "stepping.step_lie_splitting")]


def layer_metrics(spans, path_steps: int, paths: int,
                  series_bytes: int) -> dict:
    """Per-layer figures of one traced experiment (step percentiles excluded)."""
    t = _totals(spans)
    empty = (0, 0.0, 0.0, 0, 0)

    def calls(*names):
        return sum(t.get(n, empty)[0] for n in names)

    def ms(*names):
        return 1e3 * sum(t.get(n, empty)[1] for n in names)

    def self_ms(name):
        return 1e3 * t.get(name, empty)[2]

    def info_sum(*names):
        return sum(t.get(n, empty)[3] for n in names)

    fft = ("grid.to_spectral", "grid.to_physical")
    files = calls("grid.write_checkpoint")
    return {
        "grid.fft_calls_per_step": calls(*fft) / path_steps,
        "grid.fft_ms_per_step": ms(*fft) / path_steps,
        # computed, not measured: each transform reads and writes one field
        "grid.fft_bytes_per_step": 2 * info_sum(*fft) / path_steps,
        "grid.norm_ms_per_step": ms("grid.l2_norm", "grid.lp_norm",
                                    "grid.inner_product") / path_steps,
        "grid.checkpoint_files_per_run": files,
        "grid.checkpoint_ms_per_file":
            ms("grid.write_checkpoint") / files if files else 0.0,
        "grid.checkpoint_bytes_per_run": info_sum("grid.write_checkpoint"),
        "operators.maxwell_ms_per_step":
            ms("operators.maxwell_apply", "operators.maxwell_group") / path_steps,
        "multipliers.cutoff_calls_per_step":
            calls("multipliers.sharp_cutoff", "multipliers.smooth_cutoff")
            / path_steps,
        "multipliers.cutoff_ms_per_step":
            ms("multipliers.sharp_cutoff", "multipliers.smooth_cutoff")
            / path_steps,
        "kerr.force_ms_per_step": ms("kerr.kerr_force") / path_steps,
        "kerr.solve_ms_per_step": ms("kerr.implicit_kerr_solve") / path_steps,
        "noise.gauge_ms_per_step": ms("noise.gauge_phase", "noise.apply_gauge",
                                      "noise.cross_drift_apply") / path_steps,
        "noise.sample_ms_per_path": ms("noise.sample_brownian") / paths,
        "memory.convolve_ms_per_step":
            ms("memory.convolve_history") / path_steps,
        "memory.convolve_terms_per_step":
            info_sum("memory.convolve_history") / path_steps,
        "memory.history_states_peak":
            t.get("memory.convolve_history", empty)[4],
        "stepping.drift_ms_per_step": ms("stepping.drift") / path_steps,
        "stepping.noise_ms_per_step": ms("stepping.noise") / path_steps,
        "stepping.self_ms_per_step": self_ms("stepping.run_path") / path_steps,
        "config.build_runtime_calls": calls("config.build_runtime"),
        "config.build_runtime_ms": ms("config.build_runtime"),
        "diagnostics.summary_ms": ms("diagnostics.from_paths"),
        "harness.self_ms": self_ms("harness.run_experiment"),
        "harness.series_bytes": series_bytes,
    }


def tail_percentile(values):
    """(p50, tail value, tail percentile): the tail is the highest
    percentile that still has at least ten samples beyond it.  With 20
    samples or fewer no such percentile lies above the median, and the
    tail is the maximum (reported as percentile 100)."""
    xs = sorted(values)
    n = len(xs)
    p50 = statistics.median(xs)
    if n <= 20:
        return p50, xs[-1], 100.0
    return p50, xs[n - 11], 100.0 * (n - 10) / n
