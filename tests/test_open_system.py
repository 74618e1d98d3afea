import dataclasses
import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

from holoent import adiabatic
from holoent.entanglement import (
    DensityMatrix,
    density_from_pure,
    log_negativity,
    log_negativity_bits,
    reduce,
    von_neumann_entropy_bits,
)
from holoent.fock import basis_state
from holoent.holonomy import apply_holonomy, phi_maximally_entangled, u3
from holoent.open_system import (
    MAX_LOSS_STEPS,
    IntegrationError,
    LossConfig,
    bell_qutrit_state,
    damped_states,
    damping_kraus,
    evolve,
    lindblad_rhs,
)
from loss_oracle import rk4_states

LOG2_3 = math.log2(3.0)


def me_density() -> DensityMatrix:
    out = apply_holonomy(u3(phi_maximally_entangled()), basis_state(2, 1))
    return density_from_pure(out)


def embedded_state(amplitudes: dict[tuple[int, int], complex], dim: int) -> DensityMatrix:
    psi = np.zeros(dim * dim, dtype=complex)
    for (n_east, n_west), amp in amplitudes.items():
        psi[n_east * dim + n_west] = amp
    return DensityMatrix(np.outer(psi, psi.conj()), (dim, dim))


@composite
def hermitian_unit_trace(draw):
    side = 9
    elems = st.floats(-1.0, 1.0, allow_nan=False)
    re = draw(hnp.arrays(np.float64, (side, side), elements=elems))
    im = draw(hnp.arrays(np.float64, (side, side), elements=elems))
    a = re + 1j * im
    m = 0.5 * (a + a.conj().T)
    m += (1.0 - np.trace(m).real) / side * np.eye(side)
    return DensityMatrix(m, (3, 3))


class TestLindbladRhs:
    def test_vacuum_is_fixed_point(self):
        rho = embedded_state({(0, 0): 1.0}, 3)
        assert np.abs(lindblad_rhs(rho, 1.7)).max() == 0.0

    def test_one_photon_decay_channel(self):
        gamma = 0.8
        rho = embedded_state({(1, 0): 1.0}, 3)
        drho = lindblad_rhs(rho, gamma)
        expected = np.zeros((9, 9), dtype=complex)
        expected[0, 0] = gamma  # |0,0><0,0| gain
        expected[3, 3] = -gamma  # |1,0><1,0| loss
        assert np.abs(drho - expected).max() < 1e-14

    @settings(max_examples=40)
    @given(hermitian_unit_trace())
    def test_trace_and_hermiticity_preserved(self, rho):
        drho = lindblad_rhs(rho, 1.0)
        assert abs(np.trace(drho)) < 1e-12
        assert np.abs(drho - drho.conj().T).max() < 1e-12

    def test_rejects_single_mode_input(self):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3.0, (3,))
        with pytest.raises(ValueError):
            lindblad_rhs(rho, 1.0)


class TestLossConfig:
    def test_step_size_guard(self):
        with pytest.raises(ValueError):
            LossConfig(t_max=10.0, steps=10)

    def test_rejects_bad_values(self):
        for kwargs in ({"gamma": 0.0}, {"cutoff": 0}, {"t_max": -1.0}, {"steps": 0}):
            with pytest.raises(ValueError):
                LossConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("gamma", math.nan), ("gamma", math.inf), ("t_max", math.nan), ("t_max", math.inf)],
    )
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            LossConfig(**{field: value})

    def test_boundary_step_size_accepted(self):
        LossConfig(t_max=10.0, steps=1000)

    @pytest.mark.parametrize("steps", [MAX_LOSS_STEPS + 1, 10**12])
    def test_steps_bounded(self, steps):
        with pytest.raises(ValueError, match="steps"):
            LossConfig(t_max=1.0, steps=steps)

    def test_steps_bound_accepted(self):
        LossConfig(t_max=1.0, steps=MAX_LOSS_STEPS)


class TestBellQutritState:
    def test_reduced_entropy(self):
        reduced = reduce(bell_qutrit_state(), "east")
        assert abs(von_neumann_entropy_bits(reduced) - LOG2_3) < 1e-12

    def test_log_negativity(self):
        assert abs(log_negativity(bell_qutrit_state()) - LOG2_3) < 1e-12

    def test_vacuum_component_probability(self):
        assert abs(bell_qutrit_state().matrix[0, 0].real - 1.0 / 3.0) < 1e-12


class TestEvolve:
    def test_single_east_photon_population_decay(self):
        rho0 = embedded_state({(1, 0): 1.0}, 3)
        traj = evolve(rho0, LossConfig(t_max=10.0, steps=1000))
        assert np.abs(traj.single_photon_population - np.exp(-traj.times)).max() < 1e-6

    def test_me_state_population_decay(self):
        traj = evolve(me_density(), LossConfig(t_max=10.0, steps=1000))
        assert np.abs(traj.single_photon_population - np.exp(-traj.times)).max() < 1e-6

    def test_vanishing_rate_keeps_trajectory_constant(self):
        # gamma -> 0 at fixed physical duration: gamma*t stays tiny
        traj = evolve(me_density(), LossConfig(gamma=1e-12, t_max=1e-11, steps=100))
        assert np.abs(traj.negativity - traj.negativity[0]).max() < 1e-8
        assert np.abs(traj.single_photon_population - 1.0).max() < 1e-8

    def test_both_reference_states_start_at_log2_3(self):
        cfg = LossConfig(t_max=0.1, steps=10)
        for rho0 in (me_density(), bell_qutrit_state()):
            traj = evolve(rho0, cfg)
            assert abs(traj.negativity[0] - LOG2_3) < 1e-8

    def test_trace_error_stays_small(self):
        cfg = LossConfig(t_max=10.0, steps=1000)
        for rho0 in (me_density(), bell_qutrit_state()):
            traj = evolve(rho0, cfg)
            assert traj.trace_error.max() < 1e-8

    def test_negativity_monotone_non_increasing(self):
        cfg = LossConfig(t_max=10.0, steps=1000)
        for rho0 in (me_density(), bell_qutrit_state()):
            traj = evolve(rho0, cfg)
            assert np.all(np.diff(traj.negativity) <= 0.0)

    def test_bell_pair_is_more_resilient(self):
        cfg = LossConfig(t_max=10.0, steps=1000)
        traj_me = evolve(me_density(), cfg)
        traj_bell = evolve(bell_qutrit_state(), cfg)
        assert np.all(traj_bell.negativity >= traj_me.negativity - 1e-9)

    def test_long_time_limit_disentangles(self):
        cfg = LossConfig(t_max=60.0, steps=6000)
        for rho0 in (me_density(), bell_qutrit_state()):
            traj = evolve(rho0, cfg)
            assert traj.negativity[-1] < 1e-3

    def test_cutoff_two_is_exact(self):
        # the same dynamics at cutoff 3 must agree and never populate level 3
        cfg2 = LossConfig(cutoff=2, t_max=5.0, steps=500)
        cfg3 = LossConfig(cutoff=3, t_max=5.0, steps=500)
        s = 1.0 / math.sqrt(3.0)
        amp = {(2, 0): -s, (1, 1): s, (0, 2): s}
        traj2 = evolve(embedded_state(amp, 3), cfg2)
        traj3 = evolve(embedded_state(amp, 4), cfg3)
        assert np.abs(traj2.negativity - traj3.negativity).max() < 1e-10
        assert np.abs(traj2.single_photon_population - traj3.single_photon_population).max() < 1e-10

    def test_rhs_never_populates_cutoff_level(self):
        s = 1.0 / math.sqrt(3.0)
        rho = embedded_state({(2, 0): -s, (1, 1): s, (0, 2): s}, 4)
        drho = lindblad_rhs(rho, 1.0)
        level3 = [i for i in range(16) if i // 4 == 3 or i % 4 == 3]
        assert np.abs(drho[level3, :]).max() == 0.0
        assert np.abs(drho[:, level3]).max() == 0.0

    def test_cutoff_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evolve(me_density(), LossConfig(cutoff=3, t_max=1.0, steps=100))

    def test_positivity_abort(self):
        eps = 1e-5
        m = np.diag([1.0 + eps, -eps] + [0.0] * 7).astype(complex)
        rho0 = DensityMatrix(m, (3, 3))
        with pytest.raises(IntegrationError):
            evolve(rho0, LossConfig(t_max=1.0, steps=100))

    @pytest.mark.parametrize("evals", [[math.nan] + [0.0] * 8, [math.nan] * 9])
    def test_positivity_abort_on_nan(self, monkeypatch, evals):
        rho0 = me_density()
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array(evals))
        with pytest.raises(IntegrationError):
            evolve(rho0, LossConfig(t_max=1.0, steps=100))

    def test_one_integration_error_class(self):
        assert adiabatic.IntegrationError is IntegrationError

    def test_vacuum_population_defined_as_zero(self):
        traj = evolve(embedded_state({(0, 0): 1.0}, 3), LossConfig(t_max=0.1, steps=10))
        assert np.all(traj.single_photon_population == 0.0)
        assert np.all(traj.negativity == 0.0)

    def test_trajectory_is_reproducible(self):
        cfg = LossConfig(t_max=1.0, steps=100)
        a = evolve(me_density(), cfg)
        b = evolve(me_density(), cfg)
        assert np.array_equal(a.negativity, b.negativity)
        assert np.array_equal(a.single_photon_population, b.single_photon_population)


def kraus_channel(rho0: DensityMatrix, eta: float) -> np.ndarray:
    """sum over l, l' of (A_l x A_l') rho0 (A_l x A_l')^dag, one Kronecker product at a time."""
    d_east, d_west = rho0.dims
    east, west = damping_kraus(eta, d_east), damping_kraus(eta, d_west)
    out = np.zeros_like(rho0.matrix)
    for a in east:
        for b in west:
            k = np.kron(a, b)
            out += k @ rho0.matrix @ k.T
    return out


class TestDampingChannel:
    @settings(max_examples=60)
    @given(st.floats(0.0, 1.0), st.integers(1, 5))
    def test_kraus_completeness(self, eta, levels):
        kraus = damping_kraus(eta, levels)
        completeness = np.einsum("lji,ljk->ik", kraus, kraus)
        assert np.abs(completeness - np.eye(levels)).max() < 1e-12

    def test_kraus_batched_over_eta(self):
        eta = np.array([[0.0, 0.3], [0.7, 1.0]])
        kraus = damping_kraus(eta, 4)
        assert kraus.shape == (2, 2, 4, 4, 4)
        for index in np.ndindex(eta.shape):
            assert np.array_equal(kraus[index], damping_kraus(eta[index], 4))
        assert np.array_equal(kraus[1, 1, 0], np.eye(4))

    @pytest.mark.parametrize("dims", [(3, 3), (2, 4), (4, 1)])
    def test_matches_kraus_sum(self, dims):
        rng = np.random.default_rng(7)
        side = dims[0] * dims[1]
        g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        m = g @ g.conj().T
        rho0 = DensityMatrix(m / np.trace(m).real, dims)
        gamma_t = np.array([0.0, 0.2, 1.3, 7.0])
        states = damped_states(rho0, gamma_t)
        assert states.shape == (4, side, side)
        for t, state in zip(gamma_t, states):
            assert np.abs(state - kraus_channel(rho0, math.exp(-t))).max() < 1e-14
        assert np.array_equal(states[0], rho0.matrix)

    @settings(max_examples=30, deadline=None)
    @given(hermitian_unit_trace(), st.floats(0.05, 5.0), st.floats(0.2, 2.0))
    def test_central_difference_solves_lindblad(self, rho0, t, gamma):
        h = 1e-5
        before, at, after = damped_states(rho0, gamma * np.array([t - h, t, t + h]))
        derivative = (after - before) / (2.0 * h)
        assert np.abs(derivative - lindblad_rhs(DensityMatrix(at, rho0.dims), gamma)).max() < 1e-7

    @pytest.mark.parametrize("make_state", [me_density, bell_qutrit_state])
    def test_exact_within_rk4_step_halving_difference(self, make_state):
        rho0 = make_state()
        cfg = LossConfig(t_max=10.0, steps=1000)
        exact = damped_states(rho0, evolve(rho0, cfg).times)
        fine = rk4_states(rho0, cfg.t_max, 1000)
        coarse = rk4_states(rho0, cfg.t_max, 500)
        halving = np.abs(fine[::2] - coarse).max()
        assert 0.0 < np.abs(exact - fine).max() <= halving
        neg_exact = log_negativity_bits(exact, rho0.dims)
        neg_fine = log_negativity_bits(fine, rho0.dims)
        neg_halving = np.abs(neg_fine[::2] - log_negativity_bits(coarse, rho0.dims)).max()
        assert np.abs(neg_exact - neg_fine).max() <= neg_halving

    def test_evolve_samples_the_channel(self):
        rho0 = me_density()
        traj = evolve(rho0, LossConfig(t_max=2.0, steps=200))
        states = damped_states(rho0, traj.times)
        assert np.array_equal(traj.negativity, log_negativity_bits(states, rho0.dims))
        for k in (0, 63, 64, 200):
            assert traj.negativity[k] == log_negativity(DensityMatrix(states[k], rho0.dims))

    def test_memory_independent_of_sample_count(self):
        def peak_bytes(samples: int) -> int:
            cfg = LossConfig(t_max=1.0, steps=samples - 1)
            tracemalloc.start()
            try:
                evolve(bell_qutrit_state(), cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(16 * 128) <= 1.2 * peak_bytes(128)

    def test_positivity_abort_names_the_initial_state(self):
        m = np.diag([1.0 + 1e-5, -1e-5] + [0.0] * 7).astype(complex)
        with pytest.raises(IntegrationError, match="initial state is not positive semidefinite"):
            evolve(DensityMatrix(m, (3, 3)), LossConfig(t_max=1.0, steps=100))
