import math
import tracemalloc

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from holoent import holonomy
from holoent.entanglement import EIGENVALUE_FLOOR, FLOOR_RAMP, entanglement_entropy_bits, schmidt
from holoent.fock import MAX_SWEEP_ENTRIES, basis_state, check_tolerance, max_sweep_points
from holoent.holonomy import (
    MAX_DARK_PHOTONS,
    MAX_LIFT_PHOTONS,
    UNITARITY_TOL,
    RotationFamily,
    _lift_terms,
    _phase_max,
    _unitarity_defect,
    apply_holonomy,
    entropy_at_phase,
    fock_lift,
    max_entropy_over_phase,
    multimode_lift,
    phi_maximally_entangled,
    single_mode_rotation,
    u3,
)
from propagation_oracle import monomial_lift

GOLDEN_U3_QUARTER_PI = np.array(
    [
        [0.5, -1.0 / math.sqrt(2.0), 0.5],
        [1.0 / math.sqrt(2.0), 0.0, -1.0 / math.sqrt(2.0)],
        [0.5, 1.0 / math.sqrt(2.0), 0.5],
    ]
)

phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# real and imaginary parts of arbitrary 2x2 matrices, exact zeros drawn often
parts = hnp.arrays(np.float64, (2, 2), elements=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
SUB_UNITARY = 0.9 * np.array([[0.6, -0.8j], [-0.8j, 0.6]])
JORDAN = np.array([[1.0, 1.0], [0.0, 1.0]])
NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def ladder_lift_oracle(u2: np.ndarray, photons: int) -> np.ndarray:
    """Independent lift oracle: explicit truncated creation matrices.

    Builds transformed creation operators as matrices, applies their powers to
    the vacuum vector, and reads off dark-basis amplitudes. No binomial
    coefficients are used, so this path is independent of multimode_lift.
    """
    dim = photons + 1
    create = np.diag(np.sqrt(np.arange(1.0, dim)), -1).astype(complex)
    c_east = np.kron(create, np.eye(dim))
    c_west = np.kron(np.eye(dim), create)
    t_east = u2[0, 0] * c_east + u2[1, 0] * c_west
    t_west = u2[0, 1] * c_east + u2[1, 1] * c_west
    vacuum = np.zeros(dim * dim, dtype=complex)
    vacuum[0] = 1.0
    columns = []
    for n_east in range(photons, -1, -1):
        n_west = photons - n_east
        vec = (
            np.linalg.matrix_power(t_east, n_east)
            @ np.linalg.matrix_power(t_west, n_west)
            @ vacuum
        )
        vec /= math.sqrt(math.factorial(n_east) * math.factorial(n_west))
        columns.append([vec[m * dim + (photons - m)] for m in range(photons, -1, -1)])
    return np.array(columns).T


def random_unitary(rng) -> np.ndarray:
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(x)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestU3:
    def test_identity_at_zero(self):
        assert np.abs(u3(0.0) - np.eye(3)).max() == 0.0

    def test_golden_matrix_at_quarter_pi(self):
        assert np.abs(u3(math.pi / 4.0) - GOLDEN_U3_QUARTER_PI).max() < 1e-12

    def test_half_pi(self):
        expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=float)
        assert np.abs(u3(math.pi / 2.0) - expected).max() < 1e-12

    @given(phases)
    def test_unitary(self, phi):
        u = u3(phi)
        assert np.abs(u @ u.conj().T - np.eye(3)).max() < 1e-12

    @given(phases)
    def test_determinant_one(self, phi):
        assert abs(np.linalg.det(u3(phi)) - 1.0) < 1e-12

    @given(phases)
    def test_inverse_by_phase_negation(self, phi):
        assert np.abs(u3(phi) @ u3(-phi) - np.eye(3)).max() < 1e-12


class TestRotationBuilders:
    """single_mode_rotation and u3 build from phases that pass the input rule, and nothing else."""

    @pytest.mark.parametrize("build", [single_mode_rotation, u3])
    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, True, "0.3", np.float64(math.nan)])
    def test_scalar_that_is_not_a_finite_real_raises_named(self, build, phi):
        with pytest.raises(ValueError, match=r"^phi must be finite, got"):
            build(phi)

    def test_array_names_its_first_non_finite_phase(self):
        phis = np.array([0.1, 0.2, math.nan, 0.4, math.inf])
        with pytest.raises(ValueError, match=r"^phi must be finite, got nan at flat index 2$"):
            single_mode_rotation(phis)
        with pytest.raises(ValueError, match=r"^phi must be finite, got -inf at flat index 3$"):
            single_mode_rotation(np.array([[0.0, 1.0], [2.0, -math.inf]]))
        with pytest.raises(ValueError, match=r"^phi must be finite, got nan at flat index 0$"):
            single_mode_rotation(np.array(math.nan))

    @pytest.mark.parametrize("phis", [np.array([True, False]), np.array(False), np.array([0.3 + 0j]),
                                      np.array(["0.3"]), np.array([0.3], dtype=object)])
    def test_array_of_non_real_dtype_raises_named(self, phis):
        with pytest.raises(ValueError, match=r"^phi must hold real numbers, got dtype"):
            single_mode_rotation(phis)

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_batch_entries_are_the_scalar_rotations_bit_for_bit(self, shape):
        phis = np.random.default_rng(24).uniform(-10.0, 10.0, shape)
        batch = single_mode_rotation(phis)
        assert batch.shape == shape + (2, 2) and batch.dtype == complex
        for i in np.ndindex(shape):
            assert np.array_equal(batch[i], single_mode_rotation(phis[i]))
            assert np.array_equal(batch[i], single_mode_rotation(float(phis[i])))
        assert np.array_equal(single_mode_rotation(np.arange(3)), single_mode_rotation(np.arange(3.0)))
        assert np.array_equal(single_mode_rotation([0.1, 0.2]), single_mode_rotation(np.array([0.1, 0.2])))


class TestLift:
    def test_rotation_basics(self):
        assert np.abs(single_mode_rotation(0.0) - np.eye(2)).max() == 0.0
        r = single_mode_rotation(math.pi / 4.0)
        assert np.abs(r - np.array([[1, -1], [1, 1]]) / math.sqrt(2.0)).max() < 1e-12

    @pytest.mark.parametrize("photons", [1, 2, 3])
    def test_identity_lifts_to_identity(self, photons):
        lifted = fock_lift(np.eye(2), photons)
        assert np.abs(lifted - np.eye(photons + 1)).max() < 1e-12

    @given(phases)
    def test_single_photon_lift_is_defining_representation(self, phi):
        assert np.abs(fock_lift(single_mode_rotation(phi), 1) - single_mode_rotation(phi)).max() < 1e-12

    @pytest.mark.parametrize("phi", [0.1, 0.477, math.pi / 4.0, 1.3])
    def test_two_photon_lift_reproduces_u3(self, phi):
        assert np.abs(fock_lift(single_mode_rotation(phi), 2) - u3(phi)).max() < 1e-12

    def test_lift_matches_ladder_oracle_for_random_unitaries(self):
        rng = np.random.default_rng(11)
        for photons in (1, 2, 3):
            for _ in range(4):
                u = random_unitary(rng)
                assert np.abs(fock_lift(u, photons) - ladder_lift_oracle(u, photons)).max() < 1e-12

    def test_two_photon_lift_matches_oracle_at_random_phases(self):
        rng = np.random.default_rng(3)
        for phi in rng.uniform(0.0, math.pi, 64):
            r = single_mode_rotation(phi)
            lifted = fock_lift(r, 2)
            assert np.abs(lifted - ladder_lift_oracle(r, 2)).max() < 1e-12
            assert np.abs(lifted - u3(phi)).max() < 1e-12

    @pytest.mark.parametrize("photons", [1, 2, 3, 4])
    def test_homomorphism(self, photons):
        rng = np.random.default_rng(photons)
        for _ in range(5):
            a, b = random_unitary(rng), random_unitary(rng)
            lhs = fock_lift(a @ b, photons)
            rhs = fock_lift(a, photons) @ fock_lift(b, photons)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            fock_lift(np.array([[1.0, 0.0], [0.0, 2.0]]), 2)

    def test_rejects_just_over_the_unitarity_tolerance(self):
        # row norms^2 of diag(s, 1) R are s^2 and 1, and the rows stay orthogonal
        def stretched(excess):
            return np.diag([math.sqrt(1.0 + excess), 1.0]) @ single_mode_rotation(0.3)

        fock_lift(stretched(0.99 * UNITARITY_TOL), 3)
        with pytest.raises(ValueError, match=r"^unitarity defect of u 1\.010e-09 exceeds 1e-09$"):
            fock_lift(stretched(1.01 * UNITARITY_TOL), 3)

    def test_scalar_unitarity_defect_matches_the_matrix_product(self):
        rng = np.random.default_rng(13)
        for scale in (0.0, 1e-12, 1e-9, 1e-6, 1e-3):
            for _ in range(50):
                u = random_unitary(rng) + scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
                expected = np.abs(u @ u.conj().T - np.eye(2)).max()
                assert abs(_unitarity_defect(*u.ravel(order="F").tolist()) - expected) <= 1e-15

    @pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    @pytest.mark.parametrize("entry", range(4))
    def test_nan_entry_gives_nan_unitarity_defect(self, entry, nan):
        entries = [1.0 + 0j, 0j, 0j, 1.0 + 0j]  # u00, u10, u01, u11 of the identity
        entries[entry] = nan
        defect = _unitarity_defect(*entries)
        assert math.isnan(defect)
        with pytest.raises(ValueError, match=r"^unitarity defect of u nan exceeds 1e-09$"):
            check_tolerance("unitarity defect of u", defect, UNITARITY_TOL)

    def test_rejects_bad_photon_count(self):
        with pytest.raises(ValueError):
            fock_lift(np.eye(2), 0)

    @pytest.mark.parametrize(
        "u2", [[[math.nan, 0], [0, 1]], [[1, 0], [0, complex(0, math.nan)]], [[math.nan] * 2] * 2]
    )
    def test_rejects_nan(self, u2):
        with pytest.raises(ValueError):
            fock_lift(np.array(u2, dtype=complex), 2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_a_huge_matrix_as_non_unitary_before_lifting(self):
        # lifting first would overflow in the powers and warn; the defect check comes first
        with pytest.raises(ValueError, match=r"^unitarity defect of u 1\.000e\+20 exceeds 1e-09$"):
            fock_lift(1e10 * np.eye(2), MAX_LIFT_PHOTONS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("photons", [1, 2, MAX_LIFT_PHOTONS])
    def test_row_overlap_beyond_the_float_range_is_an_infinite_defect(self, photons):
        # finite entries whose row overlap has a modulus above the largest float
        u = np.array([[complex(1.3e154, 1.3e154), 0.0], [1.3e154, 1.0]])
        with pytest.raises(ValueError, match=r"^unitarity defect of u inf exceeds 1e-09$"):
            fock_lift(u, photons)

    @pytest.mark.parametrize(
        "u2, photons, message",
        [
            (np.diag([1.0, 2.0, 3.0]), 0, r"^u must be a 2x2 matrix"),
            ([[math.nan, 0.0], [0.0, 2.0]], 0, r"^u has non-finite entries$"),
            ([[1.0, 0.0], [0.0, 2.0]], 0, rf"^photon_count must be in \[1, {MAX_LIFT_PHOTONS}\], got 0$"),
            ([[1.0, 0.0], [0.0, 2.0]], 2.0, r"^photon_count must be an integer, got 2\.0$"),
            ([[1.0, 0.0], [0.0, 2.0]], 2, r"^unitarity defect of u 3\.000e\+00 exceeds 1e-09$"),
        ],
    )
    def test_checks_shape_then_finiteness_then_photon_count_then_unitarity(self, u2, photons, message):
        with pytest.raises(ValueError, match=message):
            fock_lift(u2, photons)

    @given(phases)
    def test_lift_is_unitary(self, phi):
        lifted = fock_lift(single_mode_rotation(phi), 3)
        assert np.abs(lifted @ lifted.conj().T - np.eye(4)).max() < 1e-12

    def test_multimode_lift_vacuum_sector(self):
        # the four-mode monomial-dictionary oracle on the ten two-photon occupations
        assert np.array_equal(monomial_lift(np.eye(4), 2), np.eye(10))


class TestClosedFormLift:
    @settings(max_examples=150, deadline=None)
    @given(parts, parts, st.integers(0, 20))
    @example(SUB_UNITARY.real, SUB_UNITARY.imag, 7)
    @example(JORDAN, np.zeros((2, 2)), 20)
    @example(NILPOTENT, np.zeros((2, 2)), 3)
    @example(np.zeros((2, 2)), np.zeros((2, 2)), 4)
    def test_matches_monomial_dictionary(self, re, im, photons):
        u = re + 1j * im
        scale = max(1.0, np.linalg.norm(u, 2) ** photons)
        assert np.abs(multimode_lift(u, photons) - monomial_lift(u, photons)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("photons", [1, 2, 5, 9])
    def test_homomorphism_for_non_unitary_matrices(self, photons):
        rng = np.random.default_rng(photons)
        for _ in range(5):
            a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
            scale = (np.linalg.norm(a, 2) * np.linalg.norm(b, 2)) ** photons
            lhs = multimode_lift(a @ b, photons)
            rhs = multimode_lift(a, photons) @ multimode_lift(b, photons)
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    @settings(max_examples=100, deadline=None)
    @given(parts, parts, st.integers(0, 12))
    @example(SUB_UNITARY.real, SUB_UNITARY.imag, 6)
    def test_singular_values_are_products_of_the_pair(self, re, im, photons):
        u = re + 1j * im
        s1, s2 = np.linalg.svd(u, compute_uv=False)
        expected = np.sort(s1 ** (photons - np.arange(photons + 1)) * s2 ** np.arange(photons + 1))
        got = np.sort(np.linalg.svd(multimode_lift(u, photons), compute_uv=False))
        assert np.abs(got - expected).max() <= 1e-13 * max(1.0, s1**photons)

    def test_unitary_to_ten_times_under_tolerance_at_the_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lifted = multimode_lift(random_unitary(rng), MAX_LIFT_PHOTONS)
            defect = np.abs(lifted @ lifted.conj().T - np.eye(MAX_LIFT_PHOTONS + 1)).max()
            assert defect <= 0.1 * UNITARITY_TOL

    def test_zero_photons_is_one_by_one(self):
        assert np.array_equal(multimode_lift(NILPOTENT, 0), np.ones((1, 1)))

    @pytest.mark.parametrize("u", [np.eye(3), np.eye(4), np.ones(2), np.ones((2, 3))])
    def test_rejects_shapes_other_than_two_by_two(self, u):
        with pytest.raises(ValueError, match="u must be a 2x2 matrix"):
            multimode_lift(u, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan)])
    def test_rejects_non_finite_entries(self, bad):
        u = np.eye(2, dtype=complex)
        u[1, 0] = bad
        with pytest.raises(ValueError, match="u has non-finite entries"):
            multimode_lift(u, 2)

    @pytest.mark.filterwarnings("error")  # the kernel's overflow is named, not warned about
    @pytest.mark.parametrize("u", [1e10 * np.eye(2), 1e200 * np.ones((2, 2))], ids=["1e10-identity", "1e200-ones"])
    def test_rejects_overflowing_lift(self, u):
        with pytest.raises(ValueError) as info:
            multimode_lift(u, MAX_LIFT_PHOTONS)
        assert str(info.value) == "the 42-photon lift of u overflows"

    @pytest.mark.parametrize("photons", [-1, MAX_LIFT_PHOTONS + 1])
    def test_rejects_photon_count_out_of_range(self, photons):
        with pytest.raises(ValueError, match="photon_count must be in"):
            multimode_lift(np.eye(2), photons)

    @pytest.mark.parametrize("lift", [multimode_lift, fock_lift])
    @pytest.mark.parametrize("photons", [2.0, 2.5, np.float64(3.0)])
    def test_rejects_non_integral_photon_count_before_the_table_cache(self, lift, photons):
        cached = _lift_terms.cache_info().currsize
        with pytest.raises(ValueError, match=r"^photon_count must be an integer, got "):
            lift(np.eye(2), photons)
        assert _lift_terms.cache_info().currsize == cached


class TestLiftTerms:
    @pytest.mark.parametrize("photons", [0, 1, 6, MAX_LIFT_PHOTONS])
    def test_tables_are_read_only(self, photons):
        for array in _lift_terms(photons):
            assert not array.flags.writeable

    def test_changing_a_lift_leaves_the_next_one_unchanged(self):
        u = random_unitary(np.random.default_rng(8))
        first = multimode_lift(u, 5)
        expected = first.copy()
        first[:] = 0.0
        assert np.array_equal(multimode_lift(u, 5), expected)

    @pytest.mark.parametrize("photons", [0, 1, 2, 3, 4, 5, 6, MAX_LIFT_PHOTONS])
    def test_term_count(self, photons):
        p = photons
        expected = sum(min(p - k, j) - max(0, j - k) + 1 for j in range(p + 1) for k in range(p + 1))
        index, weights, starts = _lift_terms(p)
        assert index.shape == (2, expected) and weights.shape == (expected,)
        assert starts.shape == ((p + 1) ** 2,)

    def test_homomorphism_for_unitaries_at_the_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            a, b = random_unitary(rng), random_unitary(rng)
            lhs = multimode_lift(a @ b, MAX_LIFT_PHOTONS)
            rhs = multimode_lift(a, MAX_LIFT_PHOTONS) @ multimode_lift(b, MAX_LIFT_PHOTONS)
            assert np.abs(lhs - rhs).max() <= 0.1 * UNITARITY_TOL


class TestOneKernel:
    @pytest.mark.parametrize("photons", [1, 2, 3, 4, 5, 6, MAX_LIFT_PHOTONS])
    def test_fock_lift_and_multimode_lift_agree_bit_for_bit(self, photons):
        rng = np.random.default_rng(photons)
        matrices = [random_unitary(rng) for _ in range(10)]
        matrices += list(single_mode_rotation(rng.uniform(-10.0, 10.0, 10)))
        for u in matrices:
            assert fock_lift(u, photons).tobytes() == multimode_lift(u, photons).tobytes()

    @pytest.mark.parametrize("photons", [1, 2, 6, MAX_LIFT_PHOTONS])
    def test_row_view_of_a_rotation_block_lifts_as_its_copy(self, photons):
        # the (2, 2) views of a stacked block are what the sweep passes
        block = single_mode_rotation(np.arange(256) * (math.pi / 256))
        for rotation in block[::17]:
            assert not rotation.flags.owndata
            lifted = fock_lift(rotation, photons)
            assert lifted.shape == (photons + 1, photons + 1)
            assert lifted.tobytes() == fock_lift(rotation.copy(), photons).tobytes()


class TestRotationFamily:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), phases)
    def test_matches_dict_and_ladder_lifts(self, photons, phi):
        family = RotationFamily(photons)
        lifted = np.stack([family.outputs(phi, index) for index in range(photons + 1)], axis=1)
        r = single_mode_rotation(phi)
        assert np.abs(lifted - fock_lift(r, photons)).max() < 1e-12
        assert np.abs(lifted - ladder_lift_oracle(r, photons)).max() < 1e-12

    @pytest.mark.parametrize("photons", [1, 3, 6])
    def test_batched_outputs_match_single_phases(self, photons):
        family = RotationFamily(photons)
        phis = np.linspace(-3.0, 3.0, 7)
        for index in range(photons + 1):
            outputs = family.outputs(phis, index)
            assert outputs.shape == (len(phis), photons + 1)
            for phi, row in zip(phis, outputs):
                assert np.abs(row - fock_lift(single_mode_rotation(phi), photons)[:, index]).max() < 1e-12

    @pytest.mark.parametrize("photons", [1, 2, 6])
    def test_trace_coefficients_give_overlap(self, photons):
        rng = np.random.default_rng(photons)
        block = rng.normal(size=(photons + 1,) * 2) + 1j * rng.normal(size=(photons + 1,) * 2)
        family = RotationFamily(photons)
        c = family.trace_coefficients(block)
        for phi in (-2.0, 0.1, 1.3):
            direct = np.einsum("ij,ij->", fock_lift(single_mode_rotation(phi), photons).conj(), block)
            assert abs(family.phases(phi).conj() @ c - direct) < 1e-12

    @pytest.mark.parametrize("index", [-1, 3])
    def test_rejects_out_of_range_input(self, index):
        with pytest.raises(ValueError):
            RotationFamily(2).outputs(0.3, index)

    def test_rejects_bad_photon_count(self):
        with pytest.raises(ValueError):
            RotationFamily(0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: RotationFamily(2.5),
            lambda: entropy_at_phase(0.3, 2.5, 1),
            lambda: max_entropy_over_phase(2.5, 1, 64),
        ],
        ids=["family", "entropy_at_phase", "max_entropy_over_phase"],
    )
    def test_rejects_non_integral_photon_count(self, call):
        with pytest.raises(ValueError, match=r"^photon_count must be an integer, got 2.5$"):
            call()

    def test_rejects_text_photon_count_by_name(self):
        with pytest.raises(ValueError, match=r"^photon_count must be an integer, got '3'$"):
            RotationFamily("3")

    def test_accepts_numpy_integer_photon_count(self):
        family = RotationFamily(np.int64(3))
        assert np.array_equal(family.outputs(0.3, 1), RotationFamily(3).outputs(0.3, 1))
        assert entropy_at_phase(0.3, np.int64(3), 1) == entropy_at_phase(0.3, 3, 1)


class TestSweepSizeBound:
    @pytest.mark.parametrize("photons", [1, 2, 6])
    def test_bound_is_exact(self, photons):
        # the most points whose (points + P + 1) * (P + 1) entries fit the bound
        points = max_sweep_points(photons)
        assert (points + photons + 1) * (photons + 1) <= MAX_SWEEP_ENTRIES < (points + photons + 2) * (photons + 1)

    @pytest.mark.parametrize("photons", [1, 2, 6, 42])
    def test_max_entropy_accepts_the_bound_and_rejects_one_more(self, monkeypatch, photons):
        class Checked(Exception):
            pass

        def checked(photon_count):
            raise Checked

        monkeypatch.setattr(holonomy, "RotationFamily", checked)  # the first step after the checks
        points = max_sweep_points(photons)
        with pytest.raises(Checked):
            max_entropy_over_phase(photons, 0, points)
        with pytest.raises(ValueError, match=rf"^points must be in \[8, {points}\], got {points + 1}$"):
            max_entropy_over_phase(photons, 0, points + 1)

    def test_max_entropy_rejects_points_above_bound_without_allocating(self):
        points = MAX_SWEEP_ENTRIES // 2 - 1  # one above the bound at one photon
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^points must be in \[8, {points - 1}\], got {points}$"):
                max_entropy_over_phase(1, 0, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_family_rejects_photons_above_bound(self):
        photons = math.isqrt(MAX_SWEEP_ENTRIES)  # (P + 1)^2 > MAX_SWEEP_ENTRIES
        with pytest.raises(ValueError, match=rf"^photon_count must be in \[1, {photons - 1}\], got {photons}$"):
            RotationFamily(photons)

    def test_dark_photon_bound_is_the_largest_square_within_the_entries(self):
        assert max_sweep_points(MAX_DARK_PHOTONS) >= 0 > max_sweep_points(MAX_DARK_PHOTONS + 1)

    def test_family_bound_message_names_photons(self):
        photons = MAX_DARK_PHOTONS + 1
        with pytest.raises(ValueError, match=rf"^photon_count must be in \[1, {MAX_DARK_PHOTONS}\], got {photons}$"):
            RotationFamily(photons)


class TestApplyHolonomy:
    @given(phases)
    def test_output_state_for_east_pair_input(self, phi):
        out = apply_holonomy(u3(phi), basis_state(2, 0))
        c, s = math.cos(phi), math.sin(phi)
        expected = np.array([c * c, math.sqrt(2.0) * s * c, s * s])
        assert np.abs(out.amplitudes - expected).max() < 1e-12

    @given(phases)
    def test_output_state_for_balanced_input(self, phi):
        out = apply_holonomy(u3(phi), basis_state(2, 1))
        c, s = math.cos(phi), math.sin(phi)
        expected = np.array([-math.sqrt(2.0) * s * c, math.cos(2.0 * phi), math.sqrt(2.0) * s * c])
        assert np.abs(out.amplitudes - expected).max() < 1e-12

    def test_hom_point(self):
        out = apply_holonomy(u3(math.pi / 4.0), basis_state(2, 0))
        expected = np.array([0.5, 1.0 / math.sqrt(2.0), 0.5])
        assert np.abs(out.amplitudes - expected).max() < 1e-12

    @given(phases)
    def test_probability_conservation(self, phi):
        for index in range(3):
            out = apply_holonomy(u3(phi), basis_state(2, index))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_holonomy(u3(0.3), basis_state(1, 0))


class TestMaximallyEntangledPhase:
    def test_closed_form_value(self):
        assert phi_maximally_entangled() == 0.5 * math.atan(math.sqrt(2.0))
        assert abs(phi_maximally_entangled() - 0.4776583090622546) < 1e-12

    def test_equal_amplitude_output(self):
        out = apply_holonomy(u3(phi_maximally_entangled()), basis_state(2, 1))
        inv_sqrt3 = 1.0 / math.sqrt(3.0)
        assert np.abs(out.amplitudes - np.array([-inv_sqrt3, inv_sqrt3, inv_sqrt3])).max() < 1e-12

    def test_output_entropy_is_log2_3(self):
        out = apply_holonomy(u3(phi_maximally_entangled()), basis_state(2, 1))
        assert abs(entanglement_entropy_bits(out) - math.log2(3.0)) < 1e-9


def binary_entropy_max_oracle() -> tuple[float, float]:
    """Brute-force maximum of the single-photon output entropy over a dense grid."""
    best_phi, best_val = 0.0, -1.0
    for k in range(200001):
        phi = k * math.pi / 200001
        p = math.cos(phi) ** 2
        val = 0.0
        for q in (p, 1.0 - p):
            if q > 1e-15:
                val -= q * math.log2(q)
        if val > best_val:
            best_phi, best_val = phi, val
    return best_phi, best_val


class TestPhaseMax:
    @settings(max_examples=60)
    @given(phases, st.floats(-math.pi, math.pi, exclude_max=True), st.sampled_from([math.pi, 2.0 * math.pi]))
    @example(-0.5 * math.pi, -0.5 * math.pi, math.pi)
    @example(0.0, 0.0, 2.0 * math.pi)
    def test_result_lies_in_the_searched_period(self, start, theta, period):
        # the peaks theta + n period of this score: the one in [start, start + period) is returned
        w = 2.0 * math.pi / period

        def slopes(x):
            return -w * np.sin(w * (x - theta)), -w * w * np.cos(w * (x - theta))

        phi, value = _phase_max(lambda x: np.cos(w * (x - theta)), slopes, start, period, 64, 1e-6)
        assert start <= phi < start + period
        assert abs(math.remainder(phi - theta, period)) < 1e-12
        assert value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "score",
        [lambda x: np.full_like(x, math.nan), lambda x: np.where(np.abs(x - 1.0) < 0.05, math.nan, np.cos(x))],
        ids=["all-nan", "cosine-nan-near-1"],
    )
    def test_non_finite_score_on_the_grid_is_named(self, score):
        with pytest.raises(ValueError, match=r"^the phase search's score is not finite at phase "):
            _phase_max(score, lambda x: (-np.sin(x), -np.cos(x)), 0.0, 2.0 * math.pi, 64, 1e-6)

    def test_non_finite_score_at_the_refined_maximum_is_named(self):
        theta = math.pi / 64  # midway between the grid points 0 and 2 pi / 64: every grid value is finite

        def score(x):
            return np.where(np.abs(x - theta) < 1e-3, math.nan, np.cos(x - theta))

        with pytest.raises(ValueError, match=r"^the phase search's score is not finite at phase 0\.049"):
            _phase_max(score, lambda x: (-np.sin(x - theta), -np.cos(x - theta)), 0.0, 2.0 * math.pi, 64, 1e-6)

    @pytest.mark.parametrize("curvature", [math.nan, math.inf, -math.inf, 0.0, 1.0])
    def test_unusable_curvature_bisects_on_the_slope(self, curvature):
        theta = 0.123

        def slopes(x):
            return -np.sin(x - theta), np.full_like(x, curvature)

        phi, value = _phase_max(lambda x: np.cos(x - theta), slopes, 0.0, 2.0 * math.pi, 64, 1e-6)
        assert abs(phi - theta) < 1e-14
        assert value == 1.0


class TestMaxEntropyOverPhase:
    def test_balanced_two_photon_input(self):
        phi, entropy = max_entropy_over_phase(2, 1)
        assert abs(phi - phi_maximally_entangled()) < 1e-14
        assert abs(entropy - math.log2(3.0)) < 1e-9

    @pytest.mark.parametrize("photons", range(1, 7))
    def test_east_input_peaks_at_quarter_pi(self, photons):
        phi, _ = max_entropy_over_phase(photons, 0)
        assert abs(phi - math.pi / 4.0) < 1e-14

    def test_peak_on_a_grid_point_is_kept(self):
        # pi/4 is grid point 128 of 512, where the Newton step is below one ulp: the peak must not be bisected away
        phi, _ = max_entropy_over_phase(3, 1, 512)
        assert abs(phi - math.pi / 4.0) < 1e-14

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 6), st.data(), st.sampled_from([64, 512, 2048]), st.floats(-0.05, 0.05))
    def test_search_ends_above_its_grid_and_slopes_match_the_entropy(
        self, phase_searches, photons, data, points, offset
    ):
        index = data.draw(st.integers(0, photons), label="input_index")
        phi, entropy = max_entropy_over_phase(photons, index, points)
        f, slopes, start, period, n, _ = phase_searches[-1]
        assert entropy >= f(start + np.arange(n) * period / n).max() - 1e-12  # the tie tolerance
        # central differences near the maximum: S'' diverges only where a population vanishes
        h, x = 1e-4, phi + offset
        down, mid, up = f(np.array([x - h, x, x + h]))
        slope, curvature = (value[0] for value in slopes(np.array([x])))
        assert slope == pytest.approx((up - down) / (2.0 * h), abs=1e-5 * (1.0 + abs(curvature)))
        assert curvature == pytest.approx((up - 2.0 * mid + down) / h**2, abs=1e-4 * (1.0 + abs(curvature)))

    def test_slopes_match_the_entropy_inside_the_floor_ramp(self, phase_searches):
        max_entropy_over_phase(1, 0)
        f, slopes = phase_searches[-1][:2]
        x = math.asin(math.sqrt(EIGENVALUE_FLOOR * (1.0 + 0.5 * FLOOR_RAMP)))  # sin^2 x mid-ramp
        h = 1e-11  # the ramp spans about 5e-10 rad here
        down, mid, up = f(np.array([x - h, x, x + h]))
        slope, curvature = (value[0] for value in slopes(np.array([x])))
        assert slope == pytest.approx((up - down) / (2.0 * h), rel=1e-3)
        assert curvature == pytest.approx((up - 2.0 * mid + down) / h**2, rel=1e-3)

    def test_single_photon_input(self):
        oracle_phi, oracle_val = binary_entropy_max_oracle()
        phi, entropy = max_entropy_over_phase(1, 0)
        assert abs(phi - math.pi / 4.0) < 1e-4
        assert abs(oracle_phi - math.pi / 4.0) < 1e-4
        assert abs(entropy - 1.0) < 1e-9
        assert abs(entropy - oracle_val) < 1e-6

    def test_east_pair_input(self):
        phi, entropy = max_entropy_over_phase(2, 0)
        assert abs(phi - math.pi / 4.0) < 1e-4
        assert abs(entropy - 1.5) < 1e-9

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            max_entropy_over_phase(0, 0)
        with pytest.raises(ValueError):
            max_entropy_over_phase(2, 5)


class TestMirrorSymmetry:
    @settings(max_examples=40)
    @given(phases)
    def test_east_and_west_pair_inputs_share_schmidt_spectra(self, phi):
        east_in = apply_holonomy(u3(phi), basis_state(2, 0))
        west_in = apply_holonomy(u3(phi), basis_state(2, 2))
        assert np.abs(schmidt(east_in) - schmidt(west_in)).max() < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 20), st.data(), st.floats(0.0, math.pi))
    def test_input_p_minus_k_at_pi_minus_phi_matches_input_k(self, photons, data, phi):
        # swapping east and west maps R(phi) to R(-phi), and the entropy is pi-periodic:
        # the argument behind cmd_volume searching inputs k <= P/2 only
        k = data.draw(st.integers(0, photons), label="input_index")
        mirrored = entropy_at_phase(math.pi - phi, photons, photons - k)
        assert abs(mirrored - entropy_at_phase(phi, photons, k)) <= 1e-12

    def test_mirror_holds_where_a_population_meets_the_floor(self):
        # sin^2(1e-6) is within rounding of EIGENVALUE_FLOOR, and pi - 1e-6 rounds it to the other side
        assert abs(entropy_at_phase(math.pi - 1e-6, 1, 1) - entropy_at_phase(1e-6, 1, 0)) <= 1e-12
