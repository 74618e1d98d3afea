import dataclasses
import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

from holoent import adiabatic, open_system
from holoent.entanglement import (
    DensityMatrix,
    _transpose_mode,
    density_from_pure,
    log_negativity,
    log_negativity_bits,
    reduce,
    trace_norm,
    von_neumann_entropy_bits,
)
from holoent.fock import basis_state
from holoent.holonomy import apply_holonomy, phi_maximally_entangled, u3
from holoent.open_system import (
    CHUNK_SAMPLES,
    MAX_LOSS_STEPS,
    POSITIVITY_ABORT,
    IntegrationError,
    LossConfig,
    bell_qutrit_state,
    evolve,
)
from loss_oracle import damped_states, damping_kraus, lindblad_rhs, rk4_states

LOG2_3 = math.log2(3.0)


def me_density() -> DensityMatrix:
    out = apply_holonomy(u3(phi_maximally_entangled()), basis_state(2, 1))
    return density_from_pure(out)


def dense_state() -> DensityMatrix:
    """A full-rank rho0 on (3, 3) with no zero entry: its partial transpose is one block."""
    rng = np.random.default_rng(11)
    g = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real, (3, 3))


def embedded_state(amplitudes: dict[tuple[int, int], complex], dim: int) -> DensityMatrix:
    psi = np.zeros(dim * dim, dtype=complex)
    for (n_east, n_west), amp in amplitudes.items():
        psi[n_east * dim + n_west] = amp
    return DensityMatrix(np.outer(psi, psi.conj()), (dim, dim))


def rotated_bell_qutrit() -> DensityMatrix:
    """(|0,0> + i|1,1> - |2,2>)/sqrt(3): the Bell qutrit after the local phase i^n on the east mode,
    so its coefficient table is complex."""
    s = 1.0 / math.sqrt(3.0)
    return embedded_state({(0, 0): s, (1, 1): 1j * s, (2, 2): -s}, 3)


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


@composite
def slightly_negative_states(draw):
    """Hermitian unit-trace rho0 on dims up to (4, 4) whose eigenvalues may dip to about -1e-3."""
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    side = dims[0] * dims[1]
    elems = st.floats(-1.0, 1.0, allow_nan=False)
    a = draw(hnp.arrays(np.float64, (side, side), elements=elems))
    b = draw(hnp.arrays(np.float64, (side, side), elements=elems))
    unitary = np.linalg.qr(a + 1j * b)[0]
    weights = draw(hnp.arrays(np.float64, side, elements=st.floats(-1e-3, 1.0)))
    weights[0] = 1.0
    m = (unitary * (weights / weights.sum())) @ unitary.conj().T
    return DensityMatrix(0.5 * (m + m.conj().T), dims)


@composite
def psd_states(draw):
    """Random positive semidefinite unit-trace rho0 on dims up to (4, 4)."""
    dims = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    side = dims[0] * dims[1]
    elems = st.floats(-1.0, 1.0, allow_nan=False)
    a = draw(hnp.arrays(np.float64, (side, side), elements=elems))
    b = draw(hnp.arrays(np.float64, (side, side), elements=elems))
    m = (a + 1j * b) @ (a + 1j * b).conj().T
    trace = np.trace(m).real
    assume(trace > 1e-6)
    m /= trace
    return DensityMatrix(0.5 * (m + m.conj().T), dims)


# gamma*t = 0 and [1e-12, 60]: from the first-order regime, where x = 1 - eta is tiny, to eta near 1e-26
loss_times = st.just(0.0) | st.floats(1e-12, 60.0)


def edge_state(eps: float) -> DensityMatrix:
    """diag(1 + 2 eps, -eps, -eps) on three east levels and one west level: negative mass -2 eps."""
    return DensityMatrix(np.diag([1.0 + 2.0 * eps, -eps, -eps]).astype(complex), (3, 1))


def coherence_blocks(rho0: DensityMatrix):
    """The flat table, pair photon numbers, block groups and diagonal positions of rho0's loss channel."""
    return open_system._coherence_blocks(*open_system._damping_table(rho0), rho0.dims)


def group_blocks(samples: np.ndarray, index: np.ndarray, entries: slice) -> np.ndarray:
    """One block group of flat samples, shape (len(samples), nb, s, s) for block indices of shape (nb, s)."""
    return samples[:, entries].reshape((len(samples),) + index.shape + index.shape[-1:])


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """The (shape, dtype) of every np.linalg.eigvalsh call from here on."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(m):
        calls.append((np.shape(m), np.asarray(m).dtype))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def evolve_checking_blocks(monkeypatch, rho0: DensityMatrix, cfg: LossConfig):
    """evolve(rho0, cfg) and damped_states at its times, after checking that evolve samples once per
    chunk, that its samples are the matching entries of the transposed damped_states, bit for bit and
    in the same dtype, block by block and on the diagonal, and that its negativity is that of
    damped_states, bit for bit when the support is one block."""
    layouts, samples = [], []
    split, sample = open_system._coherence_blocks, open_system._sample

    def record_split(*args):
        layouts.append(split(*args))
        return layouts[-1]

    def record_sample(*args):
        samples.append(sample(*args))
        return samples[-1]

    monkeypatch.setattr(open_system, "_coherence_blocks", record_split)
    monkeypatch.setattr(open_system, "_sample", record_sample)
    traj = evolve(rho0, cfg)
    monkeypatch.undo()
    [(flat, _, groups, diagonal)] = layouts
    # the groups' stretches tile the flat table
    assert [entries.start for _, entries in groups] == [0] + [entries.stop for _, entries in groups[:-1]]
    assert groups[-1][1].stop == flat.shape[1]
    states = damped_states(rho0, traj.times)
    transposed = _transpose_mode(states, rho0.dims, "east")
    chunks = range(0, cfg.steps + 1, CHUNK_SAMPLES)
    assert len(samples) == len(chunks)
    for first, sampled in zip(chunks, samples):
        chunk = transposed[first : first + CHUNK_SAMPLES]
        assert sampled.dtype == states.dtype
        for index, entries in groups:
            expected = chunk[:, index[:, :, None], index[:, None, :]]
            assert np.array_equal(group_blocks(sampled, index, entries), expected)
        assert np.array_equal(sampled.take(diagonal, axis=-1), np.diagonal(chunk, axis1=-2, axis2=-1))
    expected = log_negativity_bits(states, rho0.dims)
    assert np.abs(traj.negativity - expected).max() <= 1e-14
    if len(groups) == 1 and len(groups[0][0]) == 1:
        assert np.array_equal(traj.negativity, expected)
    return traj, states


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
        for kwargs in ({"t_max": 0.0}, {"t_max": -1.0}, {"steps": 0}):
            with pytest.raises(ValueError):
                LossConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [("t_max", math.nan), ("t_max", math.inf)])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            LossConfig(**{field: value})

    @pytest.mark.parametrize("t_max", ["1", None, True], ids=["text", "none", "bool"])
    def test_non_real_t_max_rejected_by_name(self, t_max):
        with pytest.raises(ValueError, match="^t_max must be finite, got"):
            LossConfig(t_max=t_max, steps=100)

    def test_boundary_step_size_accepted(self):
        LossConfig(t_max=10.0, steps=1000)

    @pytest.mark.parametrize("steps", [MAX_LOSS_STEPS + 1, 10**12])
    def test_steps_bounded(self, steps):
        with pytest.raises(ValueError, match="steps"):
            LossConfig(t_max=1.0, steps=steps)

    def test_steps_bound_accepted(self):
        LossConfig(t_max=1.0, steps=MAX_LOSS_STEPS)

    @pytest.mark.parametrize("steps", [100.5, 100.0, "100", None, True])
    def test_non_integral_steps_rejected(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer"):
            LossConfig(t_max=1.0, steps=steps)


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
        # gamma*t up to 1e-11, as for a vanishing rate over a fixed duration
        traj = evolve(me_density(), LossConfig(t_max=1e-11, steps=100))
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
        cfg = LossConfig(t_max=5.0, steps=500)
        s = 1.0 / math.sqrt(3.0)
        amp = {(2, 0): -s, (1, 1): s, (0, 2): s}
        traj2 = evolve(embedded_state(amp, 3), cfg)
        traj3 = evolve(embedded_state(amp, 4), cfg)
        assert np.abs(traj2.negativity - traj3.negativity).max() < 1e-10
        assert np.abs(traj2.single_photon_population - traj3.single_photon_population).max() < 1e-10

    def test_rhs_never_populates_cutoff_level(self):
        s = 1.0 / math.sqrt(3.0)
        rho = embedded_state({(2, 0): -s, (1, 1): s, (0, 2): s}, 4)
        drho = lindblad_rhs(rho, 1.0)
        level3 = [i for i in range(16) if i // 4 == 3 or i % 4 == 3]
        assert np.abs(drho[level3, :]).max() == 0.0
        assert np.abs(drho[:, level3]).max() == 0.0

    def test_mode_dims_come_from_the_state(self, monkeypatch):
        # two east levels, four west levels: (|0,1> + |1,3>) / sqrt(2)
        psi = np.zeros(8, dtype=complex)
        psi[[1, 7]] = 1.0 / math.sqrt(2.0)
        rho0 = DensityMatrix(np.outer(psi, psi.conj()), (2, 4))
        traj, _ = evolve_checking_blocks(monkeypatch, rho0, LossConfig(t_max=3.0, steps=300))
        assert traj.negativity[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(traj.single_photon_population - np.exp(-traj.times)).max() < 1e-12

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

    def test_phase_rotated_bell_qutrit_matches_the_real_one(self):
        # a local phase commutes with the loss and leaves negativity and populations alone; the
        # rotated state's table is complex, the Bell qutrit's real
        rotated, bell = rotated_bell_qutrit(), bell_qutrit_state()
        assert open_system._damping_table(rotated)[0].dtype == np.complex128
        assert open_system._damping_table(bell)[0].dtype == np.float64
        cfg = LossConfig(t_max=10.0, steps=1000)
        a, b = evolve(rotated, cfg), evolve(bell, cfg)
        for field in ("negativity", "single_photon_population", "trace_error"):
            assert np.abs(getattr(a, field) - getattr(b, field)).max() <= 1e-12

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

    @pytest.mark.parametrize("make_state", [me_density, bell_qutrit_state, rotated_bell_qutrit, dense_state])
    def test_evolve_samples_the_channel(self, monkeypatch, make_state):
        rho0 = make_state()
        # three chunks, the last one short
        cfg = LossConfig(t_max=6.0, steps=2 * CHUNK_SAMPLES + 88)
        traj, states = evolve_checking_blocks(monkeypatch, rho0, cfg)
        for k in (0, CHUNK_SAMPLES - 1, CHUNK_SAMPLES, cfg.steps):
            assert abs(traj.negativity[k] - log_negativity(DensityMatrix(states[k], rho0.dims))) <= 1e-14

    def test_memory_independent_of_sample_count(self):
        def peak_bytes(samples: int) -> int:
            cfg = LossConfig(t_max=1.0, steps=samples - 1)
            tracemalloc.start()
            try:
                evolve(bell_qutrit_state(), cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        large, small = peak_bytes(16 * CHUNK_SAMPLES), peak_bytes(2 * CHUNK_SAMPLES)
        # below the 278 480 bytes that sampling the whole 9x9 matrix, 64 samples a chunk, peaked at
        assert small <= 256 * 1024
        # per extra sample, the peak grows by no more than the 32 bytes of the four returned arrays
        assert large - small <= 32 * 14 * CHUNK_SAMPLES

    @settings(max_examples=80, deadline=None)
    @given(psd_states(), loss_times)
    def test_matches_kraus_sum_over_dims_and_times(self, rho0, gamma_t):
        state = damped_states(rho0, gamma_t)
        assert np.isfinite(state).all()
        assert np.abs(state - kraus_channel(rho0, math.exp(-gamma_t))).max() <= 1e-13
        assert abs(np.trace(state) - 1.0) <= 1e-12
        if gamma_t == 0.0:
            assert np.array_equal(state, rho0.matrix)

    def test_one_table_per_evolve(self, monkeypatch):
        builds = []
        damping_table = open_system._damping_table

        def record(rho0):
            builds.append(rho0.dims)
            return damping_table(rho0)

        monkeypatch.setattr(open_system, "_damping_table", record)
        for rho0 in (me_density(), bell_qutrit_state()):
            evolve(rho0, LossConfig(t_max=10.0, steps=1000))
        assert builds == [(3, 3), (3, 3)]

    def test_positivity_abort_names_the_initial_state(self):
        m = np.diag([1.0 + 1e-5, -1e-5] + [0.0] * 7).astype(complex)
        with pytest.raises(IntegrationError, match="initial state is not positive semidefinite"):
            evolve(DensityMatrix(m, (3, 3)), LossConfig(t_max=1.0, steps=100))


class TestCoherenceBlocks:
    """Loss keeps each mode's coherence order, so the partial transpose of rho(t) is block
    diagonal; evolve samples and diagonalizes only the blocks."""

    @pytest.mark.parametrize(
        "make_state, sizes", [(me_density, [1, 1, 1, 2, 2, 2]), (bell_qutrit_state, [1, 1, 2, 2, 3])]
    )
    def test_reference_state_block_sizes(self, make_state, sizes):
        flat, pair_photons, groups, _ = coherence_blocks(make_state())
        assert sorted(size for index, _ in groups for size in map(len, index)) == sizes
        assert sorted(np.concatenate([index.ravel() for index, _ in groups]).tolist()) == list(range(9))
        assert flat.shape[1] == len(pair_photons) == sum(size * size for size in sizes)

    @settings(max_examples=40, deadline=None)
    @given(psd_states())
    def test_dense_state_is_one_block(self, rho0):
        assume(np.all(rho0.matrix != 0))
        groups = coherence_blocks(rho0)[2]
        side = rho0.matrix.shape[0]
        assert len(groups) == 1
        assert np.array_equal(groups[0][0], np.arange(side)[None, :])
        traj = evolve(rho0, LossConfig(t_max=2.0, steps=CHUNK_SAMPLES + 44))
        states = damped_states(rho0, traj.times)
        assert np.array_equal(traj.negativity, log_negativity_bits(states, rho0.dims))

    def test_sparse_state_blocks_hold_every_eigenvalue(self):
        # (|0,1> + |1,3>) / sqrt(2) mixed with (|0,0> + i |1,2>) / sqrt(2) and |1,1>
        psi = np.zeros((2, 8), dtype=complex)
        psi[0, [1, 7]] = 1.0 / math.sqrt(2.0)
        psi[1, [0, 6]] = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        m = 0.5 * np.outer(psi[0], psi[0].conj()) + 0.3 * np.outer(psi[1], psi[1].conj())
        m[5, 5] = 0.2
        rho0 = DensityMatrix(m, (2, 4))
        flat, pair_photons, groups, _ = coherence_blocks(rho0)
        assert len(groups) > 1
        gamma_t = np.array([0.0, 0.1, 0.7, 2.5, 9.0])
        full = np.linalg.eigvalsh(_transpose_mode(damped_states(rho0, gamma_t), rho0.dims, "east"))
        samples = open_system._sample(flat, pair_photons, gamma_t)
        blocks = np.concatenate(
            [np.linalg.eigvalsh(group_blocks(samples, index, entries)).reshape(len(gamma_t), -1)
             for index, entries in groups],
            axis=-1,
        )
        assert np.abs(np.sort(blocks, axis=-1) - full).max() <= 1e-14


class TestInitialPositivityCheck:
    """evolve checks the summed negative eigenvalues of rho0 once; by complete positivity
    they bound the lowest eigenvalue of every sample."""

    @pytest.mark.parametrize("eps, aborts", [(4.5e-7, False), (9e-7, True)])
    def test_edge_pins(self, eps, aborts):
        cfg = LossConfig(t_max=1.0, steps=100)
        if aborts:
            with pytest.raises(IntegrationError, match="initial state is not positive semidefinite"):
                evolve(edge_state(eps), cfg)
        else:
            assert evolve(edge_state(eps), cfg).trace_error.max() < 1e-12

    def test_lowest_initial_eigenvalue_alone_is_too_weak(self):
        # lambda_min(rho0) = -9e-7 passes POSITIVITY_ABORT, yet rho(t) dips to -1.125 eps near eta = 3/4
        rho0 = edge_state(9e-7)
        assert np.linalg.eigvalsh(rho0.matrix).min() > POSITIVITY_ABORT
        lowest = np.linalg.eigvalsh(damped_states(rho0, np.linspace(0.0, 1.0, 101))).min()
        assert lowest < POSITIVITY_ABORT
        assert lowest == pytest.approx(-1.125 * 9e-7, rel=1e-3)

    @settings(max_examples=80, deadline=None)
    @given(slightly_negative_states(), st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8))
    def test_samples_never_below_initial_negative_mass(self, rho0, gamma_t):
        negative_mass = np.minimum(np.linalg.eigvalsh(rho0.matrix), 0.0).sum()
        states = damped_states(rho0, np.array(gamma_t))
        assert np.linalg.eigvalsh(states).min() >= negative_mass - 1e-12

    def test_one_positivity_eigvalsh_per_evolve(self, eigvalsh_calls):
        # three chunks, the last of one sample; every block, the Bell qutrits' 3x3 blocks included,
        # takes a closed form, so the positivity check on the complex rho0 is the only call
        for rho0 in (me_density(), bell_qutrit_state(), rotated_bell_qutrit()):
            eigvalsh_calls.clear()
            evolve(rho0, LossConfig(t_max=2.0, steps=2 * CHUNK_SAMPLES))
            assert eigvalsh_calls == [((9, 9), np.dtype(np.complex128))]

    @pytest.mark.parametrize("make_state", [bell_qutrit_state, rotated_bell_qutrit])
    def test_bell_qutrit_blocks_never_fall_back_to_eigvalsh(self, eigvalsh_calls, make_state):
        # trace_norm sends a 3x3 block to eigvalsh only where its closed form cannot vouch for a
        # near-degenerate pair straddling zero; no block of 100 001 samples up to gamma*t = 10 does,
        # real (Bell qutrit) or complex (its phase-rotated twin)
        flat, pair_photons, groups, _ = coherence_blocks(make_state())
        index, entries = groups[-1]
        assert index.shape == (1, 3)
        for gamma_t in np.array_split(np.linspace(0.0, 10.0, 100_001), 100):
            norm = trace_norm(group_blocks(open_system._sample(flat, pair_photons, gamma_t), index, entries))
            assert np.isfinite(norm).all()
        assert eigvalsh_calls == []
