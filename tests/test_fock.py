import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holoent.fock import (
    OccupationState,
    PureState,
    basis_state,
    dark_basis,
    occupation_basis,
)
from loss_oracle import identity_operator, lowering_operator, two_mode_embed


def brute_force_occupations(photons: int, modes: int) -> list[tuple[int, ...]]:
    """Independent stars-and-bars oracle: enumerate every occupation tuple."""
    return [
        occ
        for occ in itertools.product(range(photons + 1), repeat=modes)
        if sum(occ) == photons
    ]


class TestDarkBasis:
    def test_two_photon_basis(self):
        assert [(s.n_east, s.n_west) for s in dark_basis(2).states] == [(2, 0), (1, 1), (0, 2)]

    def test_zero_photon_basis(self):
        assert [(s.n_east, s.n_west) for s in dark_basis(0).states] == [(0, 0)]

    def test_three_photon_basis_matches_enumeration(self):
        expected = sorted(brute_force_occupations(3, 2), key=lambda o: -o[0])
        assert [(s.n_east, s.n_west) for s in dark_basis(3).states] == expected
        assert [(s.n_east, s.n_west) for s in dark_basis(3).states] == [
            (3, 0),
            (2, 1),
            (1, 2),
            (0, 3),
        ]

    def test_is_pure_function(self):
        assert dark_basis(4) == dark_basis(4)

    @pytest.mark.parametrize("photons", range(9))
    def test_length_matches_two_mode_dimension(self, photons):
        assert dark_basis(photons).dimension == math.comb(photons + 1, photons)

    def test_states_distinct_and_descending(self):
        basis = dark_basis(5)
        assert len(set(basis.states)) == basis.dimension
        easts = [s.n_east for s in basis.states]
        assert easts == sorted(easts, reverse=True)

    def test_rejects_negative_photon_count(self):
        with pytest.raises(ValueError):
            dark_basis(-1)


class TestHilbertDimension:
    """The occupation basis spans the whole P-photon, M-mode sector of size C(P + M - 1, P)."""

    def test_two_photons_two_modes(self):
        assert len(occupation_basis(2, 2)) == 3

    @pytest.mark.parametrize("modes", [1, 2, 5])
    def test_vacuum(self, modes):
        assert len(occupation_basis(0, modes)) == 1

    def test_three_photons_four_modes_vs_enumeration(self):
        assert len(brute_force_occupations(3, 4)) == 20
        assert len(occupation_basis(3, 4)) == 20

    @given(st.integers(0, 5), st.integers(1, 4))
    def test_matches_enumeration(self, photons, modes):
        basis = occupation_basis(photons, modes)
        assert sorted(basis) == sorted(brute_force_occupations(photons, modes))
        assert len(basis) == math.comb(photons + modes - 1, photons)


class TestOccupationBasis:
    def test_two_modes_matches_dark_basis(self):
        for photons in range(5):
            expected = tuple((s.n_east, s.n_west) for s in dark_basis(photons).states)
            assert occupation_basis(photons, 2) == expected

    def test_four_modes_count_and_order(self):
        basis = occupation_basis(2, 4)
        assert len(basis) == math.comb(2 + 3, 2)
        assert basis[0] == (2, 0, 0, 0)
        assert basis[-1] == (0, 0, 0, 2)
        assert list(basis) == sorted(basis, reverse=True)


class TestLadderOperators:
    def test_lowering_on_one(self):
        a = lowering_operator(1)
        ket1 = np.array([0.0, 1.0])
        assert np.allclose(a @ ket1, [1.0, 0.0])

    def test_lowering_on_two(self):
        a = lowering_operator(2)
        ket2 = np.array([0.0, 0.0, 1.0])
        assert np.allclose(a @ ket2, [0.0, math.sqrt(2.0), 0.0])

    @given(st.integers(1, 8))
    def test_number_operator_identity(self, cutoff):
        a = lowering_operator(cutoff)
        adag = a.conj().T
        for n in range(cutoff + 1):
            ket = np.zeros(cutoff + 1)
            ket[n] = 1.0
            assert np.abs(adag @ (a @ ket) - n * ket).max() < 1e-12
            if n < cutoff:
                assert np.abs(a @ (adag @ ket) - (n + 1) * ket).max() < 1e-12

    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValueError):
            lowering_operator(0)


class TestTwoModeEmbed:
    def test_identity_embeds_to_identity(self):
        embedded = two_mode_embed(identity_operator(2), identity_operator(1))
        assert np.array_equal(embedded, np.eye(6))

    def test_east_lowering_on_one_one(self):
        op = two_mode_embed(lowering_operator(2), identity_operator(2))
        ket = np.zeros(9)
        ket[1 * 3 + 1] = 1.0  # |1,1>
        out = op @ ket
        expected = np.zeros(9)
        expected[0 * 3 + 1] = 1.0  # |0,1>
        assert np.allclose(out, expected)

    def test_double_lowering_on_two_two(self):
        op = two_mode_embed(lowering_operator(2), lowering_operator(2))
        ket = np.zeros(9)
        ket[2 * 3 + 2] = 1.0  # |2,2>
        out = op @ ket
        expected = np.zeros(9)
        expected[1 * 3 + 1] = 2.0  # sqrt(2)*sqrt(2) |1,1>
        assert np.allclose(out, expected)


class TestStates:
    def test_label_round_trip(self):
        occ = OccupationState(3, 1)
        assert occ.label == "3,1"
        assert OccupationState.from_label("3,1") == occ

    def test_bad_labels_rejected(self):
        for bad in ("3", "a,b", "1,2,3", "-1,2"):
            with pytest.raises(ValueError):
                OccupationState.from_label(bad)

    def test_basis_state_is_unit_vector(self):
        state = basis_state(2, 1)
        assert state.amplitudes[1] == 1.0
        assert np.abs(state.amplitudes).sum() == 1.0

    def test_non_normalized_state_rejected(self):
        with pytest.raises(ValueError):
            PureState(dark_basis(1), np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "amplitudes",
        [[math.nan, 0, 0], [1, 0, math.nan], [1, complex(0, math.nan), 0], [math.inf, 0, 0]],
    )
    def test_non_finite_state_rejected(self, amplitudes):
        with pytest.raises(ValueError):
            PureState(dark_basis(2), np.array(amplitudes, dtype=complex))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            PureState(dark_basis(2), np.array([1.0, 0.0]))
