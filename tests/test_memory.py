import numpy as np
import pytest

import mks.stepping
from mks.errors import ConfigurationError, UsageError
from mks.grid import Field6, l2_norm, random_field
from mks.kerr import KerrExponent
from mks.memory import (
    History,
    KernelSpec,
    contraction_step_length,
    convolve_history,
)
from mks.multipliers import CutoffLevel
from mks.noise import SeparableSource, make_noise_spec, sample_brownian, zero_source
from mks.stepping import EULER_MARUYAMA, LIE_SPLITTING, MSEE, SchemeConfig

from conftest import run_path


def direct_trapezoid(ker, times, states, t, dt):
    """Oracle: the trapezoid sum of integral_0^t G(t - s) u(s) ds, re-summed,
    with G(t) = a e^{-rt} C built from the exponential kernel's parameters."""
    acc = np.zeros_like(states[0].data)
    last = len(states) - 1
    if last == 0:
        return acc
    for k, (tk, state) in enumerate(zip(times, states)):
        weight = 0.5 if k in (0, last) else 1.0
        g = ker.amplitude * np.exp(-ker.rate * (t - tk)) * ker.coupling
        acc += weight * np.einsum("ab,b...->a...", g, state.data)
    return dt * acc


def random_states(grid, count, seed):
    """Non-constant random states with a slow drift, as a stepper produces."""
    base = random_field(grid, seed=(seed, 0))
    return [base.with_data(np.cos(0.3 * k) * base.data
                           + random_field(grid, seed=(seed, k + 1)).data)
            for k in range(count)]


def nonsymmetric_coupling(seed):
    g = np.random.default_rng(seed).standard_normal((6, 6))
    assert not np.allclose(g, g.T)
    return g


def relative_error(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def held_states(h):
    """Distinct field-sized arrays a History keeps alive."""
    arrays = [h.carried]
    if h.latest is not None:
        arrays.append(h.latest.data)
    return len({id(a) for a in arrays if a is not None})


def constant_history(kernel, state, dt, horizon):
    h = History(kernel, dt)
    for _ in range(int(round(horizon / dt)) + 1):
        h.append(state)
    return h


class TestKernelSpec:
    def test_coupling_is_a_real_matrix_identity_by_default(self):
        assert np.array_equal(KernelSpec(1.0, 2.0).coupling, np.eye(6))
        # a dispersive dielectric: the law couples the electric block only
        electric = np.diag([1, 1, 1, 0, 0, 0])
        coupling = KernelSpec(1.0, 2.0, electric).coupling
        assert coupling.dtype == np.float64
        assert np.array_equal(coupling, electric)

    def test_l1_norm_closed_form(self):
        ker = KernelSpec(2.0, 0.5)
        expected = 2.0 * (1 - np.exp(-0.5)) / 0.5
        assert np.isclose(ker.l1_norm(1.0), expected)
        flat = KernelSpec(1.5, 0.0)
        assert np.isclose(flat.l1_norm(2.0), 3.0)


class TestConvolution:
    def test_zero_amplitude(self, grid4):
        c = random_field(grid4, seed=1)
        h = constant_history(KernelSpec(0.0, 1.0), c, 0.125, 0.5)
        out = convolve_history(h)
        assert l2_norm(out) == 0.0

    def test_single_entry_history_is_zero_integral(self, grid4):
        c = random_field(grid4, seed=2)
        h = History(KernelSpec(1.0, 1.0), 0.1)
        h.append(c)
        out = convolve_history(h)
        assert l2_norm(out) == 0.0

    def test_identity_kernel_constant_state_exact(self, grid4):
        # trapezoid is exact for constant integrands: integral = t * c
        c = random_field(grid4, seed=3)
        ker = KernelSpec(1.0, 0.0)
        h = constant_history(ker, c, 0.125, 0.5)
        out = convolve_history(h)
        assert np.max(np.abs(out.data - 0.5 * c.data)) < 1e-14

    def test_exponential_kernel_order_two(self, grid4):
        lam, a, horizon = 1.3, 0.8, 0.5
        ker = KernelSpec(a, lam)
        c = random_field(grid4, seed=4)
        exact = a * (1 - np.exp(-lam * horizon)) / lam * c.data
        errs = []
        dts = [1e-2, 5e-3, 2.5e-3]
        for dt in dts:
            h = constant_history(ker, c, dt, horizon)
            out = convolve_history(h)
            errs.append(np.max(np.abs(out.data - exact)))
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_matrix_coupling(self, grid4):
        # a coupling matrix that swaps the two blocks
        swap = np.zeros((6, 6))
        swap[:3, 3:] = np.eye(3)
        swap[3:, :3] = np.eye(3)
        ker = KernelSpec(amplitude=1.0, rate=0.0,
                         coupling=swap)
        c = random_field(grid4, seed=6)
        h = constant_history(ker, c, 0.25, 0.5)
        out = convolve_history(h)
        expected = 0.5 * np.concatenate([c.data[3:], c.data[:3]])
        assert np.max(np.abs(out.data - expected)) < 1e-14


    def test_stacked_paths_read_as_each_path_alone(self, grid4):
        # each path is reduced alone, bitwise, and the real matrix product
        # agrees with the complex einsum up to rounding
        dt = 0.05
        ker = KernelSpec(amplitude=0.9, rate=1.7,
                         coupling=nonsymmetric_coupling(5))
        paths = [random_states(grid4, 6, seed=20 + p) for p in range(3)]
        alone = [History(ker, dt) for _ in paths]
        stack = History(ker, dt)
        for k in range(6):
            for h, states in zip(alone, paths):
                h.append(states[k])
            stack.append(paths[0][k].with_data(
                np.stack([states[k].data for states in paths])))
        out = convolve_history(stack).data
        for p, (h, states) in enumerate(zip(alone, paths)):
            assert np.array_equal(out[p], convolve_history(h).data)
            diff = h.carried - 0.5 * states[-1].data
            oracle = ker.amplitude * dt * np.einsum(
                "ab,b...->a...", ker.coupling, diff)
            assert relative_error(out[p], oracle) <= 1e-14

    @pytest.mark.parametrize("coupling", [np.eye(5), 1j * np.eye(6)],
                             ids=["five-by-five", "complex"])
    def test_coupling_must_be_real_six_by_six(self, coupling):
        with pytest.raises(ConfigurationError):
            KernelSpec(1.0, 1.0, coupling)


class TestContractionStepLength:
    def test_no_memory_gives_full_horizon(self):
        assert contraction_step_length(0.0, 3.0, 2.5) == 2.5

    def test_documented_case(self):
        # g = 1, no noise: largest T/2^m with (T0/2) e^{2 T0} <= 1/2 is 1/4
        assert contraction_step_length(1.0, 0.0, 1.0) == 0.25

    def test_monotone_in_kernel_norm(self):
        a = contraction_step_length(1.0, 0.0, 1.0)
        b = contraction_step_length(2.0, 0.0, 1.0)
        assert b <= a

    def test_monotone_in_noise(self):
        a = contraction_step_length(1.0, 0.0, 1.0)
        b = contraction_step_length(1.0, 1.0, 1.0)
        assert b <= a

    def test_dyadic_fraction(self):
        t0 = contraction_step_length(3.0, 0.7, 1.0)
        ratio = 1.0 / t0
        assert abs(ratio - round(ratio)) < 1e-12
        assert (int(round(ratio)) & (int(round(ratio)) - 1)) == 0

    def test_kappa_condition_holds(self):
        g, c, horizon = 2.0, 0.5, 1.0
        t0 = contraction_step_length(g, c, horizon)
        ctil = 2.0 * c
        kappa = 0.5 * t0 * g**2 * np.exp(2 * (1 + 2 * ctil**2 + c**2) * t0)
        assert kappa <= 0.5
        # one level coarser violates the condition (t0 is the largest)
        kappa2 = 0.5 * (2 * t0) * g**2 * np.exp(
            2 * (1 + 2 * ctil**2 + c**2) * (2 * t0))
        assert kappa2 > 0.5

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            contraction_step_length(-1.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            contraction_step_length(1.0, 0.0, 0.0)


class TestHistory:
    def test_copies_of_a_folded_prefix_continue_bitwise(self, grid4):
        # folding a prefix once and continuing from copies gives the floats
        # of folding every state again, and leaves the prefix untouched
        dt = 0.125
        ker = KernelSpec(amplitude=0.7, rate=1.3,
                         coupling=nonsymmetric_coupling(3))
        states = random_states(grid4, 9, seed=12)
        prefix = History(ker, dt)
        for k in range(4):
            prefix.append(states[k])
        kept = prefix.carried.copy()
        for _ in range(2):
            h = prefix.copy()
            full = History(ker, dt)
            for k, state in enumerate(states):
                if k >= 4:
                    h.append(state)
                full.append(state)
            assert len(h) == len(full) == 9
            assert np.array_equal(convolve_history(h).data,
                                  convolve_history(full).data)
        assert len(prefix) == 4
        assert np.array_equal(prefix.carried, kept)


class TestRecursiveHistory:
    """The carried sum against the direct trapezoid oracle."""

    RATES = [0.0, 1.0, 7.0]

    @pytest.mark.parametrize("rate", RATES)
    def test_matches_direct_sum_at_every_step(self, grid4, rate):
        dt = 0.01
        ker = KernelSpec(amplitude=0.7, rate=rate,
                         coupling=nonsymmetric_coupling(1))
        states = random_states(grid4, 120, seed=2)
        h = History(ker, dt)
        worst = 0.0
        for k, state in enumerate(states):
            h.append(state)
            t = k * dt
            out = convolve_history(h)
            if k == 0:
                assert l2_norm(out) == 0.0
                continue
            oracle = direct_trapezoid(ker, [j * dt for j in range(k + 1)],
                                      states[:k + 1], t, dt)
            worst = max(worst, relative_error(out.data, oracle))
        assert worst <= 1e-12

    @pytest.mark.parametrize("rate", RATES)
    def test_bulk_fold_matches_direct_sum(self, grid4, rate):
        # one read after the whole record is appended
        dt = 1.0 / 128
        ker = KernelSpec(amplitude=-1.3, rate=rate,
                         coupling=nonsymmetric_coupling(3))
        states = random_states(grid4, 129, seed=4)
        times = [k * dt for k in range(len(states))]
        h = History(ker, dt)
        for state in states:
            h.append(state)
        out = convolve_history(h)
        oracle = direct_trapezoid(ker, times, states, times[-1], dt)
        assert relative_error(out.data, oracle) <= 1e-12

    def test_repeated_reads_are_bitwise_idempotent(self, grid4):
        ker = KernelSpec(0.8, 1.3)
        states = random_states(grid4, 5, seed=7)
        h = History(ker, 0.1)
        for state in states:
            h.append(state)
            first = convolve_history(h)
            again = convolve_history(h)
            assert np.array_equal(first.data, again.data)

    def test_empty_history_rejected(self):
        with pytest.raises(UsageError):
            convolve_history(History(KernelSpec(1.0, 1.0), 0.1))

    def test_length_counts_appended_states(self, grid4):
        h = constant_history(KernelSpec(1.0, 1.0),
                             random_field(grid4, seed=10), 0.125, 0.5)
        convolve_history(h)
        assert len(h) == 5
        assert held_states(h) == 2


class _RecordingHistory(History):
    """History that records the peak number of states it holds."""

    made = []

    def append(self, state):
        if not self.count:
            _RecordingHistory.made.append(self)
            self.peak = 0
        super().append(state)
        self.peak = max(self.peak, held_states(self))


@pytest.mark.parametrize("scheme", [EULER_MARUYAMA, LIE_SPLITTING])
@pytest.mark.parametrize("steps", [16, 64])
def test_run_path_history_storage_is_bounded(grid4, monkeypatch, scheme, steps):
    n = grid4.points_per_axis
    b = SeparableSource(shape=Field6(
        grid4, "physical", np.full((6, n, n, n), 0.1, dtype=np.complex128)))
    spec = make_noise_spec(grid4, [0.2 * np.ones((n, n, n))], [b],
                           zero_source(grid4),
                           random_field(grid4, seed=21, scale=0.5))
    bundle = sample_brownian(1, 0.5, steps, seed=17)
    cfg = SchemeConfig(scheme=scheme, dt=0.5 / steps,
                       cutoff_level=CutoffLevel(1), equation=MSEE,
                       kerr=KerrExponent(3.0, False))
    _RecordingHistory.made.clear()
    monkeypatch.setattr(mks.stepping, "History", _RecordingHistory)
    run_path(spec, cfg, KernelSpec(2.0, 1.0), bundle)
    (h,) = _RecordingHistory.made
    assert len(h) == steps + 1
    assert h.peak <= 2 and held_states(h) <= 2
