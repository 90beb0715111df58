import time

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
from mks.noise import BrownianBundle, NoiseSpec, cross_drift_apply, gauge_phase
from mks.stepping import Recording, raise_blowups, run_paths


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
    (report,) = raise_blowups(run_paths(spec, cfg, kernel, [bundle],
                                        **options))
    return report


def recording(spec, bundles, inverse=False) -> Recording:
    """A Recording of y (of u with ``inverse``) for a run over all of
    ``bundles``, its paths labelled 0..P-1."""
    return Recording(spec.grid, bundles[0].times, len(bundles),
                     inverse=inverse)


def recorded_path(spec, cfg, kernel, bundle, **kwargs):
    """``run_path`` into a Recording of y: (the report, the trajectory)."""
    record = recording(spec, [bundle])
    report = run_path(spec, cfg, kernel, bundle, sink=record, **kwargs)
    return report, record.trajectory(0)


def fan_out(*sinks):
    """One sink that hands every state to each of ``sinks``."""
    def sink(*state):
        for each in sinks:
            each(*state)
    return sink


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
