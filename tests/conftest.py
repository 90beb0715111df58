import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mks.grid import (
    PHYSICAL,
    SPECTRAL,
    Field6,
    _require_representation,
    make_grid,
    random_field,
    to_physical,
    to_spectral,
)
from mks.harness import (
    dense_battery,
    kerr_battery,
    memory_battery,
    operator_battery,
)
from mks.multipliers import CutoffLevel, sharp_cutoff
from mks.noise import (BrownianBundle, NoiseSpec, apply_gauge,
                       cross_drift_apply, gauge_phase)
from mks.stepping import observed, raise_blowups, run_paths


@pytest.fixture(scope="session")
def batteries():
    """The records of acceptance criteria 1, 2, 3 and 7, computed once per
    session: ``operator_battery(16, 100)`` (with its runtime in seconds),
    ``dense_battery()``, ``kerr_battery()`` and ``memory_battery()``.
    ``verify_suite("full")`` must hold each of them too."""
    t0 = time.monotonic()
    operator = operator_battery(16, 100)
    return {"operator": operator, "operator_s": time.monotonic() - t0,
            "dense": dense_battery(), "kerr": kerr_battery(),
            "memory": memory_battery()}


@pytest.fixture(scope="session")
def grid4():
    return make_grid(4, 2.0 * np.pi)


@pytest.fixture(scope="session")
def grid8():
    return make_grid(8, 2.0 * np.pi)


@pytest.fixture(scope="session")
def grid16():
    return make_grid(16, 2.0 * np.pi)


def banded_field(grid, seed, scale=1.0, level=1):
    """Random field band-limited to the cube |k_i| <= 2^level."""
    f = random_field(grid, seed=seed, scale=scale)
    return to_physical(sharp_cutoff(to_spectral(f), CutoffLevel(level)))


def coords(grid):
    x = grid.axes()
    n = grid.points_per_axis
    return x.reshape(n, 1, 1), x.reshape(1, n, 1), x.reshape(1, 1, n)


def plane_wave(grid, mode, component=0, amplitude=1.0):
    """amplitude * exp(i k.x) in one component; mode in integer units."""
    n = grid.points_per_axis
    kx, ky, kz = (2.0 * np.pi * m / grid.box_length for m in mode)
    x, y, z = coords(grid)
    data = np.zeros((6, n, n, n), dtype=np.complex128)
    data[component] = amplitude * np.exp(1j * (kx * x + ky * y + kz * z))
    return Field6(grid, "physical", data)


def hermitian_defect(f: Field6) -> float:
    """Max |u_hat(k) - conj(u_hat(-k))| over modes of a spectral field (a
    packed axis is in fftfreq order too, so the same reversal applies)."""
    _require_representation(f, SPECTRAL, "hermitian_defect")
    rev = f.data[:, ::-1, ::-1, ::-1]
    rev = np.roll(rev, 1, axis=(1, 2, 3))
    return float(np.max(np.abs(f.data - np.conj(rev))))


def run_path(spec, cfg, kernel, bundle, **options):
    """Integrate one path over its whole bundle: ``run_paths`` with a batch
    of one (``options`` are its keywords), raising the BlowUpError of a path
    that blew up."""
    (report,) = raise_blowups(finished(run_paths(spec, cfg, kernel,
                                                 [bundle], **options)))
    return report


def finished(run) -> list:
    """The outcome list of ``run``, a ``run_paths`` generator, stepped to
    its end with its states unread."""
    outcomes = []
    for _ in observed(run, outcomes):
        pass
    return outcomes


def stepped(run):
    """Step ``run``, a ``run_paths`` generator, to its end: (its outcome
    list, {path label: its states of y}, {path label: its states of u}),
    each the label's rows of the physical view stacked in step order (u = y
    where the run forms no phase)."""
    outcomes, y, u = [], {}, {}
    for _, paths, view, gauge in observed(run, outcomes):
        back = view if gauge is None else apply_gauge(view, gauge, "inverse")
        for p, a, b in zip(paths, view.data, back.data):
            y.setdefault(p, []).append(a)
            u.setdefault(p, []).append(b)
    return (outcomes, *({p: np.stack(rows) for p, rows in each.items()}
                        for each in (y, u)))


def recorded_path(spec, cfg, kernel, bundle, **kwargs):
    """``run_path`` keeping every state of y: (the report, its physical
    states stacked in step order)."""
    outcomes, states, _ = stepped(run_paths(spec, cfg, kernel, [bundle],
                                            **kwargs))
    (report,), (data,) = raise_blowups(outcomes), states.values()
    return report, data


def sup_distance(grid, a, b) -> float:
    """max_k sqrt(cell_volume) ||a_k - b_k||, the sup-in-time L^2 distance
    of two trajectories of physical states on ``grid``, stacked in step
    order."""
    assert len(a) == len(b), "trajectories have different lengths"
    weight = np.sqrt(grid.cell_volume)
    diff = a - b
    return float(max(weight * np.linalg.norm(diff[k]) for k in range(len(a))))


def traced_peaks(call: str, *args) -> list:
    """The tracemalloc peaks (bytes) of ``call``, one line on ``cfg``
    (example_strong.cfg with its fields saved, at ``horizon``) and ``argv``
    (``args`` as strings), at horizons 0.125 and 1.0 after a warm-up call.
    A fresh interpreter runs them, so what ran before in this process (the
    file names pathlib interns, which tracemalloc counts) stays out."""
    root = Path(__file__).resolve().parents[1]
    code = f"""if True:
        import sys, tracemalloc
        from pathlib import Path
        from mks.config import build_runtime, parse_config
        from mks.diagnostics import galerkin_convergence
        from mks.harness import run_experiment
        config, *argv = sys.argv[1:]
        text = Path(config).read_text().replace("save_fields = off",
                                                "save_fields = on")

        def traced_peak(horizon):
            cfg = parse_config(text.replace("horizon = 0.5",
                                            f"horizon = {{horizon}}"))
            tracemalloc.start()
            {call}
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            return peak

        traced_peak(0.125)
        print(traced_peak(0.125), traced_peak(1.0))
    """
    done = subprocess.run(
        [sys.executable, "-c", code,
         str(root / "configs" / "example_strong.cfg"), *map(str, args)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    return list(map(int, done.stdout.split()))


def drift_and_noise(ctx, bundle, y: Field6, k: int, history=None):
    """Lambda and Z of a ``StepContext`` at grid index k of ``bundle``,
    formed from what ``run_paths`` hands them: y's physical view and the
    step's gauge phase (the Kerr force forms the view's norm itself).
    ``history``: a memory History of packed y, read without a phase (msee,
    wsee)."""
    t = float(bundle.times[k])
    view, gauge = to_physical(y), gauge_phase(ctx.spec, bundle, k)
    lam = ctx.drift(y, t, memory=ctx.memory_term(history, None), view=view,
                    gauge=gauge, magnitude=None)
    return lam, ctx.noise(y, t, gauge=gauge, view=view)


# -- direct oracles for the gauge-transformed coefficients --------------------
#
# Straight transcriptions of the formulas, independent of the coefficient
# products that mks.stepping.StepContext precomputes.

def drift_A_apply(y: Field6, k: int, spec: NoiseSpec,
                  bundle: BrownianBundle) -> Field6:
    """A(t_k) y = 1/2 sum_j B_j^2 y + cross-term drift."""
    _require_representation(y, PHYSICAL, "drift_A_apply")
    beta = bundle.values[:, k]
    b2 = 0.0
    for b_field in spec.B_fields:
        b2 = b2 + b_field**2
    out = 0.5 * b2 * y.data
    out += cross_drift_apply(spec, beta, y)
    return y.with_data(out)


def transformed_current(k: int, spec: NoiseSpec,
                        bundle: BrownianBundle) -> Field6:
    """(sum_j -i b_j(t) B_j + J(t)) * gauge phase at t = t_k.

    The forcing J enters once, outside the sum over noise channels.
    """
    t = float(bundle.times[k])
    phase = gauge_phase(spec, bundle, k)
    total = spec.current.at(t).astype(np.complex128)
    for b_field, source in zip(spec.B_fields, spec.b_sources):
        total = total - 1j * b_field * source.at(t)
    return Field6(spec.grid, PHYSICAL, total * phase.values)


def transformed_noise(i: int, k: int, spec: NoiseSpec,
                      bundle: BrownianBundle) -> Field6:
    """b_i(t_k) times the gauge phase; same pointwise modulus as b_i."""
    t = float(bundle.times[k])
    phase = gauge_phase(spec, bundle, k)
    return Field6(spec.grid, PHYSICAL, spec.b_sources[i].at(t) * phase.values)
