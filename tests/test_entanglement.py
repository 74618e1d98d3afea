import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

from holoent.entanglement import (
    EIGENVALUE_FLOOR,
    FLOOR_RAMP,
    DensityMatrix,
    density_from_pure,
    entanglement_entropy_bits,
    entropic_inequality_violated,
    entropy_bits,
    log_negativity,
    log_negativity_bits,
    partial_transpose,
    purity,
    reduce,
    renyi2_bits,
    schmidt,
    trace_norm,
    von_neumann_entropy_bits,
)
from holoent.fock import PureState, basis_state, dark_basis
from holoent.holonomy import apply_holonomy, phi_maximally_entangled, u3

LOG2_3 = math.log2(3.0)


def hom_state() -> PureState:
    return PureState(dark_basis(2), np.array([0.5, 1.0 / math.sqrt(2.0), 0.5]))


def me_state() -> PureState:
    s = 1.0 / math.sqrt(3.0)
    return PureState(dark_basis(2), np.array([-s, s, s]))


def bell_qutrit_density() -> DensityMatrix:
    psi = np.zeros(9, dtype=complex)
    psi[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
    return DensityMatrix(np.outer(psi, psi.conj()), (3, 3))


unit_floats = st.floats(-1.0, 1.0, allow_nan=False)


@composite
def dark_states(draw, min_photons=1, max_photons=4):
    photons = draw(st.integers(min_photons, max_photons))
    dim = photons + 1
    re = draw(hnp.arrays(np.float64, dim, elements=unit_floats))
    im = draw(hnp.arrays(np.float64, dim, elements=unit_floats))
    vec = re + 1j * im
    norm = np.linalg.norm(vec)
    assume(norm > 1e-2)
    return PureState(dark_basis(photons), vec / norm)


@composite
def mixed_densities(draw):
    d_east = draw(st.integers(2, 3))
    d_west = draw(st.integers(2, 3))
    side = d_east * d_west
    re = draw(hnp.arrays(np.float64, (side, side), elements=unit_floats))
    im = draw(hnp.arrays(np.float64, (side, side), elements=unit_floats))
    a = re + 1j * im
    m = a @ a.conj().T + 1e-6 * np.eye(side)
    m = 0.5 * (m + m.conj().T)
    m /= np.trace(m).real
    return DensityMatrix(m, (d_east, d_west))


class TestDensityMatrix:
    def test_product_state_projector(self):
        rho = density_from_pure(basis_state(2, 0))
        expected = np.zeros((9, 9))
        expected[6, 6] = 1.0  # flat index of |2,0> is 2*3+0
        assert np.array_equal(rho.matrix, expected)

    def test_hom_state_is_rank_one(self):
        rho = density_from_pure(hom_state())
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
        evals = np.linalg.eigvalsh(rho.matrix)
        assert abs(evals[-1] - 1.0) < 1e-12 and np.abs(evals[:-1]).max() < 1e-12

    def test_me_state_entries(self):
        rho = density_from_pure(me_state()).matrix
        third = 1.0 / 3.0
        assert abs(rho[6, 6] - third) < 1e-12
        assert abs(rho[6, 4] + third) < 1e-12  # cross term of opposite-sign amplitudes
        assert abs(rho[4, 2] - third) < 1e-12
        assert abs(rho[0, 0]) < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(m / np.trace(m), (2, 2))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex), (2, 2))

    @pytest.mark.parametrize("entry", ["all", (0, 0), (0, 1)])
    def test_rejects_nan(self, entry):
        m = np.eye(3, dtype=complex) / 3.0
        if entry == "all":
            m[:] = np.nan
        else:
            m[entry] = np.nan
        with pytest.raises(ValueError):
            DensityMatrix(m, (3,))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex) / 4.0, (2, 3))


class TestReduce:
    def test_hom_state_reduction_is_diagonal(self):
        reduced = reduce(density_from_pure(hom_state()), "east")
        assert np.abs(reduced.matrix - np.diag([0.25, 0.5, 0.25])).max() < 1e-12

    def test_me_state_reduction_is_maximally_mixed(self):
        reduced = reduce(density_from_pure(me_state()), "east")
        assert np.abs(reduced.matrix - np.eye(3) / 3.0).max() < 1e-12

    def test_product_state_keep_west_is_pure_vacuum(self):
        reduced = reduce(density_from_pure(basis_state(2, 0)), "west")
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.abs(reduced.matrix - expected).max() < 1e-12

    def test_rejects_an_unknown_side_by_name(self):
        with pytest.raises(ValueError, match=r"^keep must be 'east' or 'west', got 'north'$"):
            reduce(density_from_pure(hom_state()), "north")

    @settings(max_examples=50)
    @given(dark_states())
    def test_reductions_are_valid_densities(self, state):
        rho = density_from_pure(state)
        for side in ("east", "west"):
            reduced = reduce(rho, side)
            evals = np.linalg.eigvalsh(reduced.matrix)
            assert evals.min() > -1e-9


class TestEntropies:
    def test_maximally_mixed_qutrit(self):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3.0, (3,))
        assert abs(von_neumann_entropy_bits(rho) - LOG2_3) < 1e-12

    def test_pure_state_entropy_is_zero(self):
        rho = density_from_pure(me_state())
        assert von_neumann_entropy_bits(rho) == 0.0

    def test_hom_reduction_entropy(self):
        reduced = reduce(density_from_pure(hom_state()), "east")
        assert abs(von_neumann_entropy_bits(reduced) - 1.5) < 1e-12

    def test_purity_values(self):
        assert purity(density_from_pure(hom_state())) == pytest.approx(1.0, abs=1e-12)
        mixed3 = DensityMatrix(np.eye(3, dtype=complex) / 3.0, (3,))
        assert purity(mixed3) == pytest.approx(1.0 / 3.0, abs=1e-12)
        diag = DensityMatrix(np.diag([0.25, 0.5, 0.25]).astype(complex), (3,))
        assert purity(diag) == pytest.approx(0.375, abs=1e-12)

    def test_renyi2_values(self):
        assert renyi2_bits(density_from_pure(me_state())) == pytest.approx(0.0, abs=1e-12)
        mixed3 = DensityMatrix(np.eye(3, dtype=complex) / 3.0, (3,))
        assert renyi2_bits(mixed3) == pytest.approx(LOG2_3, abs=1e-12)
        diag = DensityMatrix(np.diag([0.25, 0.5, 0.25]).astype(complex), (3,))
        assert renyi2_bits(diag) == pytest.approx(math.log2(8.0 / 3.0), abs=1e-12)

    def test_entropy_rejects_large_negative_eigenvalue(self):
        eps = 1e-6
        m = np.diag([1.0 + eps, -eps, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            von_neumann_entropy_bits(DensityMatrix(m, (3,)))

    @pytest.mark.parametrize("evals", [[math.nan, 0.5, 0.5], [math.nan] * 3])
    def test_entropy_rejects_nan_eigenvalues(self, monkeypatch, evals):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3.0, (3,))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array(evals))
        with pytest.raises(ValueError):
            von_neumann_entropy_bits(rho)

    @settings(max_examples=50)
    @given(mixed_densities())
    def test_renyi2_never_exceeds_von_neumann(self, rho):
        assert renyi2_bits(rho) <= von_neumann_entropy_bits(rho) + 1e-10


class TestEntropicInequality:
    def test_product_input_no_violation(self):
        assert entropic_inequality_violated(density_from_pure(basis_state(2, 0))) == (False, False)

    def test_me_state_violates_both(self):
        assert entropic_inequality_violated(density_from_pure(me_state())) == (True, True)

    def test_maximally_mixed_global_no_violation(self):
        rho = DensityMatrix(np.eye(9, dtype=complex) / 9.0, (3, 3))
        assert entropic_inequality_violated(rho) == (False, False)


class TestSchmidt:
    def test_product_state(self):
        assert np.abs(schmidt(basis_state(2, 1)) - np.array([1.0, 0.0, 0.0])).max() < 1e-12

    def test_me_state(self):
        s = 1.0 / math.sqrt(3.0)
        assert np.abs(schmidt(me_state()) - np.array([s, s, s])).max() < 1e-12

    def test_hom_state(self):
        expected = np.array([1.0 / math.sqrt(2.0), 0.5, 0.5])
        assert np.abs(schmidt(hom_state()) - expected).max() < 1e-12

    @settings(max_examples=50)
    @given(dark_states())
    def test_squares_sum_to_one(self, state):
        s = schmidt(state)
        assert abs((s**2).sum() - 1.0) < 1e-10
        assert np.all(np.diff(s) <= 1e-15)


class TestPartialTranspose:
    def test_rejects_an_unknown_side_by_name(self):
        with pytest.raises(ValueError, match=r"^side must be 'east' or 'west', got 'up'$"):
            partial_transpose(bell_qutrit_density(), "up")

    def test_product_state_spectrum_unchanged(self):
        rho = density_from_pure(basis_state(2, 1))
        pt = partial_transpose(rho, "east")
        before = np.sort(np.linalg.eigvalsh(rho.matrix))
        after = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(before - after).max() < 1e-12
        assert after.min() > -1e-12

    def test_bell_qutrit_spectrum(self):
        pt = partial_transpose(bell_qutrit_density(), "east")
        evals = np.sort(np.linalg.eigvalsh(pt))
        third = 1.0 / 3.0
        expected = np.sort([third] * 6 + [-third] * 3)
        assert np.abs(evals - expected).max() < 1e-12

    @settings(max_examples=50)
    @given(mixed_densities())
    def test_involution(self, rho):
        twice = partial_transpose(
            DensityMatrix(partial_transpose(rho, "east"), rho.dims), "east"
        )
        assert np.abs(twice - rho.matrix).max() < 1e-14

    @settings(max_examples=50)
    @given(mixed_densities())
    def test_entries_follow_index_definition(self, rho):
        d_east, d_west = rho.dims
        t = rho.matrix.reshape(d_east, d_west, d_east, d_west)
        east = partial_transpose(rho, "east").reshape(t.shape)
        west = partial_transpose(rho, "west").reshape(t.shape)
        for a, b, c, e in np.ndindex(t.shape):
            assert east[a, b, c, e] == t[c, b, a, e]
            assert west[a, b, c, e] == t[a, e, c, b]

    @settings(max_examples=50)
    @given(mixed_densities())
    def test_hermitian_and_trace_preserving(self, rho):
        for side in ("east", "west"):
            pt = partial_transpose(rho, side)
            assert np.abs(pt - pt.conj().T).max() < 1e-12
            assert abs(np.trace(pt) - 1.0) < 1e-10


class TestLogNegativity:
    def test_product_state_is_ppt(self):
        assert log_negativity(density_from_pure(basis_state(2, 0))) == 0.0

    def test_bell_qutrit(self):
        assert abs(log_negativity(bell_qutrit_density()) - LOG2_3) < 1e-12

    def test_me_state(self):
        assert abs(log_negativity(density_from_pure(me_state())) - LOG2_3) < 1e-12

    @settings(max_examples=50)
    @given(dark_states())
    def test_pure_state_closed_form(self, state):
        s = schmidt(state)
        expected = 2.0 * math.log2(s.sum())
        value = log_negativity(density_from_pure(state))
        assert abs(value - max(0.0, expected)) < 1e-10


    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (3, 2)])
    @pytest.mark.parametrize("side", ["east", "west"])
    def test_batched_matches_single_matrix(self, dims, side):
        rng = np.random.default_rng(3)
        side_len = dims[0] * dims[1]
        g = rng.normal(size=(2, 3, side_len, side_len)) + 1j * rng.normal(size=(2, 3, side_len, side_len))
        m = g @ np.swapaxes(g.conj(), -1, -2)
        m /= np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
        batched = log_negativity_bits(m, dims)
        assert batched.shape == (2, 3)
        for index in np.ndindex(2, 3):
            rho = DensityMatrix(m[index], dims)
            assert batched[index] == log_negativity(rho)
            # either side's partial transpose has the same spectrum
            trace_norm = np.abs(np.linalg.eigvalsh(partial_transpose(rho, side))).sum()
            assert batched[index] == pytest.approx(max(0.0, math.log2(trace_norm)), abs=1e-12)

    @pytest.mark.parametrize("dims", [(1, 1), (1, 2), (2, 1), (3, 3)], ids=["1x1", "1x2", "2x1", "3x3"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrices_rejected_by_name(self, dims, bad):
        side = dims[0] * dims[1]
        m = np.broadcast_to(np.eye(side, dtype=complex) / side, (2, side, side)).copy()
        m[1, side - 1, 0] = bad
        with pytest.raises(ValueError) as info:
            log_negativity_bits(m, dims)
        assert type(info.value) is ValueError
        first = side * side + (side - 1) * side  # the flat index of m[1, side - 1, 0]
        assert str(info.value) == f"matrices must be finite, got {complex(bad, 0.0)} at flat index {first}"

    def test_batched_rejects_non_bipartite_dims(self):
        with pytest.raises(ValueError, match="bipartite"):
            log_negativity_bits(np.eye(8)[None] / 8.0, (2, 2, 2))


def hermitian_2x2(a, d, b) -> np.ndarray:
    """The batch [[a_k, conj(b_k)], [b_k, d_k]] from real a, d and complex b."""
    m = np.empty((len(a), 2, 2), dtype=complex)
    m[:, 0, 0], m[:, 1, 1], m[:, 1, 0] = a, d, b
    m[:, 0, 1] = np.conj(b)
    return m


@composite
def small_hermitian_batches(draw):
    """(n, s, s) Hermitian batches of side 1, 2 or 3, entries of order 1 or near 1e-300."""
    side, n = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 1e-300]))
    re, im = (draw(hnp.arrays(np.float64, (n, side, side), elements=st.floats(-1.0, 1.0))) * scale for _ in range(2))
    lower = np.tril(re + 1j * im, -1)
    return lower + np.swapaxes(lower.conj(), -1, -2) + np.eye(side) * np.diagonal(re, axis1=-2, axis2=-1)[..., None]


def rotated_spectra(spectra, dtype=complex) -> np.ndarray:
    """Q diag(spectrum) Q^dagger for each row of `spectra`, Q a seeded random unitary (orthogonal
    for a real dtype): 3x3 matrices with known eigenvalues, exactly Hermitian only up to rounding."""
    spectra = np.asarray(spectra, dtype=float)
    rng = np.random.default_rng(3)
    g = rng.normal(size=spectra.shape + (3,)).astype(dtype)
    if np.iscomplexobj(g):
        g += 1j * rng.normal(size=g.shape)
    q = np.linalg.qr(g)[0]
    return (q * spectra[:, None, :]) @ np.swapaxes(q.conj(), -1, -2)


# the splittings e of the 3x3 examples' near-degenerate pairs, down to an exact degeneracy
PAIR_SPLITS = [10.0**-k for k in range(3, 15)] + [0.0]


class TestTraceNorm:
    @settings(max_examples=300)
    @given(small_hermitian_batches())
    # 3x3, each family at every split in PAIR_SPLITS: a pair (e, -e) straddling zero beside +1 or -1,
    # a pair (0.3, 0.3 + e) clear of zero; then exact degeneracies, rank one and two, zero, subnormal
    @example(rotated_spectra([(1.0, e, -e) for e in PAIR_SPLITS]))
    @example(rotated_spectra([(-1.0, e, -e) for e in PAIR_SPLITS]))
    @example(rotated_spectra([(0.3, 0.3 + e, -0.3) for e in PAIR_SPLITS]))
    @example(rotated_spectra([(1.0, e, -e) for e in PAIR_SPLITS], dtype=float))
    @example(rotated_spectra([(0.5, 0.5, 0.5), (-2.0, -2.0, -2.0), (0.0, 0.0, 0.0)]))  # triple degeneracy
    @example(np.array([0.5, -2.0, 1e-300])[:, None, None] * np.eye(3))  # exact multiples of I
    @example(rotated_spectra([(1.0, 0.0, 0.0), (-0.7, 0.0, 0.0), (1.0, 1.0, 0.0)]))  # rank one, two
    @example(np.ones((2, 3, 3)))  # rank one, real
    @example(np.zeros((1, 3, 3), dtype=complex))
    @example(rotated_spectra([(1.0, 0.5, -0.25), (1.0, 1e-8, -1e-8)]) * 1e-315)  # subnormal
    @example(rotated_spectra([(1.0, e, -e) for e in PAIR_SPLITS]) * 1e-300)
    @example(hermitian_2x2([0.3, -0.7, 0.0], [0.3, -0.7, 0.0], [0.0, 0.0, 0.0]))  # exactly degenerate
    @example(hermitian_2x2([0.5, -0.2], [-0.2, 1e-17], [0.0, 0.0]))  # zero off-diagonal
    @example(hermitian_2x2([-1.0, -0.4], [-0.5, -0.4], [0.3 + 0.2j, 0.1j]))  # negative definite
    @example(hermitian_2x2([1e-300, -2e-300], [-3e-300, -1e-300], [(2 + 1j) * 1e-300, 5e-301j]))
    @example(np.array([[[-0.25]], [[1e-300]], [[0.0]]], dtype=complex))
    @example(hermitian_2x2([0.0, 0.0], [1.15658603e-315, 5e-324], [(1 + 1j) * 1.15658603e-315, 0.0]))  # subnormal
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no overflow, invalid value or division by zero
    def test_small_sides_match_eigvalsh(self, matrices):
        expected = np.abs(np.linalg.eigvalsh(matrices)).sum(axis=-1)
        norm = trace_norm(matrices)
        assert norm.shape == expected.shape
        # among subnormals the spacing 5e-324 exceeds 1e-14 of any entry, and eigvalsh's result
        # is itself rounded to it: one spacing for [[0, x(1-i)], [x(1+i), x]] at x = 1.16e-315
        tiny = np.finfo(float).smallest_subnormal
        assert np.all(np.abs(norm - expected) <= 1e-14 * np.abs(matrices).max() + 2.0 * tiny)
        if matrices.shape[-1] == 1:
            assert np.array_equal(norm, expected)
        # like eigvalsh, it reads the lower triangle alone
        assert np.array_equal(trace_norm(np.tril(matrices)), norm)

    @settings(max_examples=100)
    @given(small_hermitian_batches())
    @example(rotated_spectra([(1.0, e, -e) for e in PAIR_SPLITS], dtype=float))  # 3x3 eigvalsh fallback
    @example(np.ones((2, 3, 3)))
    def test_real_input_gives_the_complex_bits(self, matrices):
        # the closed forms of real matrices equal those of the same matrices held as complex, and
        # the 3x3 fallback holds them as complex too
        lower = np.tril(matrices.real)
        real = lower + np.swapaxes(np.tril(lower, -1), -1, -2)
        assert np.array_equal(trace_norm(real), trace_norm(real.astype(complex)))

    def test_single_3x3_matrix_is_a_batch_of_one(self):
        for m in (np.ones((3, 3)), rotated_spectra([(1.0, 0.5, -0.25)])[0]):  # eigvalsh fallback, closed form
            assert trace_norm(m).shape == ()
            assert trace_norm(m) == trace_norm(m[None])[0]

    def test_larger_sides_take_eigvalsh(self):
        rng = np.random.default_rng(5)
        for side in (4, 5, 9):
            g = rng.normal(size=(2, 4, side, side)) + 1j * rng.normal(size=(2, 4, side, side))
            m = g + np.swapaxes(g.conj(), -1, -2)
            assert np.array_equal(trace_norm(m), np.abs(np.linalg.eigvalsh(m)).sum(axis=-1))
            assert np.array_equal(trace_norm(m.real), np.abs(np.linalg.eigvalsh(m.real)).sum(axis=-1))


class TestPureStateIdentities:
    @settings(max_examples=50)
    @given(dark_states())
    def test_entropy_symmetric_between_sides(self, state):
        rho = density_from_pure(state)
        east = von_neumann_entropy_bits(reduce(rho, "east"))
        west = von_neumann_entropy_bits(reduce(rho, "west"))
        assert abs(east - west) < 1e-10

    @settings(max_examples=50)
    @given(dark_states())
    def test_entropy_matches_schmidt_path(self, state):
        via_density = entanglement_entropy_bits(state)
        p = schmidt(state) ** 2
        p = p[p > 1e-12]
        via_schmidt = float(-(p * np.log2(p)).sum())
        assert abs(via_density - via_schmidt) < 1e-10


    @settings(max_examples=50)
    @given(dark_states(max_photons=6))
    def test_diagonal_east_reduction_matches_partial_trace(self, state):
        reduced = reduce(density_from_pure(state), "east")
        # dark-basis order is descending east occupation, the reverse of the reduced index
        populations = np.abs(state.amplitudes[::-1]) ** 2
        assert np.abs(reduced.matrix - np.diag(populations)).max() < 1e-12
        assert abs(entanglement_entropy_bits(state) - von_neumann_entropy_bits(reduced)) < 1e-12

    @settings(max_examples=50)
    @given(dark_states(max_photons=6))
    def test_schmidt_matches_svd(self, state):
        d = state.basis.photon_count + 1
        m = np.zeros((d, d), dtype=complex)
        for amp, occ in zip(state.amplitudes, state.basis.states):
            m[occ.n_east, occ.n_west] = amp
        assert np.abs(schmidt(state) - np.linalg.svd(m, compute_uv=False)).max() < 1e-12


class TestEntropyCeiling:
    def test_phase_sweep_respects_ceilings(self):
        for k in range(181):
            phi = k * math.pi / 181
            for index in range(3):
                out = apply_holonomy(u3(phi), basis_state(2, index))
                entropy = entanglement_entropy_bits(out)
                assert entropy <= LOG2_3 + 1e-12
                if index in (0, 2):
                    assert entropy <= 1.5 + 1e-12


class TestGhzReference:
    def test_qutrit_ghz_traced_to_one_party(self):
        psi = np.zeros(27, dtype=complex)
        for k in range(3):
            psi[k * 9 + k * 3 + k] = 1.0 / math.sqrt(3.0)
        rho = DensityMatrix(np.outer(psi, psi.conj()), (3, 9))
        reduced = reduce(rho, "east")
        assert np.abs(reduced.matrix - np.eye(3) / 3.0).max() < 1e-12
        assert abs(von_neumann_entropy_bits(reduced) - LOG2_3) < 1e-12
        assert abs(von_neumann_entropy_bits(reduce(rho, "west")) - LOG2_3) < 1e-10

    def test_me_output_matches_ghz_entropy(self):
        out = apply_holonomy(u3(phi_maximally_entangled()), basis_state(2, 1))
        assert abs(entanglement_entropy_bits(out) - LOG2_3) < 1e-12


class TestEntropyBitsFloor:
    def test_continuous_at_the_floor_and_at_the_ramp_top(self):
        # a plain floor steps by about 4e-11 bits where a population crosses it
        for edge in (EIGENVALUE_FLOOR, (1.0 + FLOOR_RAMP) * EIGENVALUE_FLOOR):
            below, above = entropy_bits(np.array([np.nextafter(edge, 0.0), np.nextafter(edge, 1.0)])[:, None])
            assert abs(above - below) < 1e-15

    def test_plain_floor_rule_outside_the_ramp(self):
        p = np.array([0.0, 0.5 * EIGENVALUE_FLOOR, EIGENVALUE_FLOOR, 1.01 * EIGENVALUE_FLOOR, 1e-6, 0.25])
        kept = p > (1.0 + FLOOR_RAMP) * EIGENVALUE_FLOOR
        assert entropy_bits(p) == -np.where(kept, p * np.log2(np.where(kept, p, 1.0)), 0.0).sum()

    def test_term_rises_linearly_across_the_ramp(self):
        p = EIGENVALUE_FLOOR * (1.0 + FLOOR_RAMP * np.array([0.25, 0.5, 0.75]))
        assert entropy_bits(p[:, None]) == pytest.approx(-np.array([0.25, 0.5, 0.75]) * p * np.log2(p), rel=1e-9)


class TestEntropyBitsMemory:
    # (P + 1) = 2 and 3 columns at sweep-like row counts, below and above numpy's temporary elision size
    @pytest.mark.parametrize("shape", [(1026, 3), (100_000, 2)])
    def test_peak_is_about_two_inputs(self, shape):
        """The floored copy and one log2 temporary: at most 2.1 times the input's bytes."""
        populations = np.full(shape, 1.0 / shape[1])
        populations[::7, 0] = 0.0  # floored cells take the copy's 1.0
        tracemalloc.start()
        try:
            entropy_bits(populations)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * populations.nbytes

    def test_nan_propagates(self):
        populations = np.full((4, 3), 1.0 / 3.0)
        populations[2, 1] = math.nan
        values = entropy_bits(populations)
        assert math.isnan(values[2])
        assert np.array_equal(np.delete(values, 2), np.full(3, values[0]))
