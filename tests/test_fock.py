import ast
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holoent.adiabatic import BOUNDARY_DECAY, CouplingProfile, PulseSchedule, ScheduleError
from holoent.entanglement import (
    HERMITICITY_TOL,
    NEGATIVE_EIGENVALUE_TOL,
    TRACE_TOL,
    DensityMatrix,
    von_neumann_entropy_bits,
)
from holoent.fock import (
    NORM_TOL,
    OccupationState,
    PureState,
    basis_state,
    check_array,
    check_positive,
    check_tolerance,
    dark_basis,
    occupation_basis,
)
from holoent.holonomy import UNITARITY_TOL, fock_lift
from holoent.open_system import POSITIVITY_ABORT, STEP_SIZE_GUARD, IntegrationError, LossConfig, evolve
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

    def test_index_of_a_state_outside_the_basis_names_it(self):
        assert dark_basis(2).index_of(OccupationState(1, 1)) == 1
        message = r"^OccupationState\(n_east=2, n_west=1\) is not in the 2-photon dark basis$"
        with pytest.raises(ValueError, match=message):
            dark_basis(2).index_of(OccupationState(2, 1))


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


SOURCES = Path(__file__).resolve().parents[1] / "src" / "holoent"
# every tolerance a library check raises on; PAIR_ERROR_TOL only selects trace_norm's fallback
TOLERANCES = {"NORM_TOL", "HERMITICITY_TOL", "TRACE_TOL", "NEGATIVE_EIGENVALUE_TOL", "UNITARITY_TOL",
              "BOUNDARY_DECAY", "STEP_ERROR_ABORT", "POSITIVITY_ABORT", "STEP_SIZE_GUARD"}


def one_plus_edge(tol: float) -> tuple[float, float]:
    """The largest float x with x - 1 <= tol, and the float after it."""
    x = 1.0 + tol
    while x - 1.0 > tol:
        x = math.nextafter(x, 0.0)
    return x, math.nextafter(x, math.inf)


class TestCheckTolerance:
    """check_tolerance is the one check of a value against its tolerance: value <= bound, NaN fails."""

    @pytest.mark.parametrize("bound", [0.0, 1e-12, 1e-6, 0.01 + 1e-15, 7.5])
    def test_the_bound_passes_and_the_next_float_fails(self, bound):
        check_tolerance("defect", bound, bound)
        above = math.nextafter(bound, math.inf)
        with pytest.raises(ValueError) as info:
            check_tolerance("defect", above, bound)
        assert str(info.value) == f"defect {above:.3e} exceeds {bound:g}"

    @pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (math.inf, "inf"), (np.float64(math.nan), "nan")])
    def test_non_finite_values_fail(self, value, shown):
        with pytest.raises(ValueError, match=rf"^defect {shown} exceeds 1e-09$"):
            check_tolerance("defect", value, 1e-9)

    @pytest.mark.parametrize("error", [ValueError, IntegrationError, ScheduleError])
    def test_raises_the_class_it_is_given(self, error):
        with pytest.raises(error) as info:
            check_tolerance("defect", 1.0, 0.5, error)
        assert type(info.value) is error

    @pytest.mark.parametrize("name, value, bound", [("trace defect", 2.5e-10, 1e-10), ("x", 12345.678, 0.01 + 1e-15)])
    def test_message(self, name, value, bound):
        with pytest.raises(ValueError) as info:
            check_tolerance(name, value, bound)
        assert str(info.value) == f"{name} {value:.3e} exceeds {bound:g}"

    def test_pure_state_norm(self):
        at, above = one_plus_edge(NORM_TOL)
        PureState(dark_basis(0), np.array([at]))
        with pytest.raises(ValueError, match=rf"^state norm defect {above - 1.0:.3e} exceeds 1e-12$"):
            PureState(dark_basis(0), np.array([above]))

    def test_density_matrix_hermiticity(self):
        def skewed(defect):
            return DensityMatrix(np.array([[1.0, defect], [0.0, 0.0]]), (2,))

        skewed(HERMITICITY_TOL)
        with pytest.raises(ValueError, match=r"^Hermiticity defect 1\.000e-10 exceeds 1e-10$"):
            skewed(math.nextafter(HERMITICITY_TOL, math.inf))

    def test_density_matrix_trace(self):
        at, above = one_plus_edge(TRACE_TOL)
        DensityMatrix(np.diag([at, 0.0]), (2,))
        with pytest.raises(ValueError, match=rf"^trace defect {above - 1.0:.3e} exceeds 1e-10$"):
            DensityMatrix(np.diag([above, 0.0]), (2,))

    def test_negative_eigenvalue(self):
        def entropy(depth):
            return von_neumann_entropy_bits(DensityMatrix(np.diag([1.0 + depth, -depth]), (2,)))

        entropy(NEGATIVE_EIGENVALUE_TOL)
        message = r"^negated lowest eigenvalue of the density matrix 1\.000e-09 exceeds 1e-09$"
        with pytest.raises(ValueError, match=message):
            entropy(math.nextafter(NEGATIVE_EIGENVALUE_TOL, math.inf))

    def test_lift_unitarity(self):
        # the row overlap of [[1, 0], [c, 1]] is c; the row norms round to 1
        fock_lift(np.array([[1.0, 0.0], [UNITARITY_TOL, 1.0]]), 3)
        with pytest.raises(ValueError, match=r"^unitarity defect of u 1\.000e-09 exceeds 1e-09$"):
            fock_lift(np.array([[1.0, 0.0], [math.nextafter(UNITARITY_TOL, math.inf), 1.0]]), 3)

    def test_pulse_schedule_facet_coupling(self):
        # the first float z past the centre where the unscaled coupling is within BOUNDARY_DECAY * peak
        east = CouplingProfile(peak=3.0, center=0.0, sigma=1.0)
        far = CouplingProfile(peak=1.0, center=1e6, sigma=1.0)
        dark = math.sqrt(-2.0 * math.log(BOUNDARY_DECAY))  # about where exp(-z^2 / 2) = BOUNDARY_DECAY
        while east.value(dark) <= BOUNDARY_DECAY * east.peak:
            dark = math.nextafter(dark, 0.0)
        while east.value(dark) > BOUNDARY_DECAY * east.peak:
            dark = math.nextafter(dark, math.inf)
        bright = math.nextafter(dark, 0.0)
        PulseSchedule(east, far, far, (-10.0, dark), steps=64)
        message = rf"^east coupling at the facet z = {bright} {east.value(bright):.3e} exceeds 3e-06$"
        with pytest.raises(ScheduleError, match=message):
            PulseSchedule(east, far, far, (-10.0, bright), steps=64)

    def test_initial_positivity(self):
        # diag(1 + 2 eps, -eps, -eps): negative eigenvalue mass 2 eps, exactly 1e-6 at eps = 5e-7
        def evolve_edge(eps):
            rho0 = DensityMatrix(np.diag([1.0 + 2.0 * eps, -eps, -eps]), (3, 1))
            return evolve(rho0, LossConfig(t_max=1.0, steps=100))

        assert -2.0 * 5e-7 == POSITIVITY_ABORT
        evolve_edge(5e-7)
        message = r"^negative eigenvalue mass of the initial state 1\.000e-06 exceeds 1e-06$"
        with pytest.raises(IntegrationError, match=message):
            evolve_edge(math.nextafter(5e-7, math.inf))

    def test_loss_sampling_step(self):
        bound = STEP_SIZE_GUARD + 1e-15
        LossConfig(t_max=4.0 * bound, steps=4)
        with pytest.raises(ValueError, match=r"^sampling step gamma\*dt 1\.000e-02 exceeds 0\.01$"):
            LossConfig(t_max=4.0 * math.nextafter(bound, math.inf), steps=4)

    def test_takes_no_message_advice_or_recorder(self):
        assert list(inspect.signature(check_tolerance).parameters) == ["name", "value", "bound", "error"]

    def test_every_tolerance_is_read_only_by_check_tolerance(self):
        # a new inline `value <= TOL` check would read its constant outside a check_tolerance call
        inside, outside = set(), []
        for path in sorted(SOURCES.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = {
                id(node)
                for call in ast.walk(tree)
                if isinstance(call, ast.Call) and ast.unparse(call.func).split(".")[-1] == "check_tolerance"
                for arg in call.args + [keyword.value for keyword in call.keywords]
                for node in ast.walk(arg)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and node.id in TOLERANCES and isinstance(node.ctx, ast.Load):
                    if id(node) in allowed:
                        inside.add(node.id)
                    else:
                        outside.append(f"{path.name}:{node.lineno} reads {node.id}")
        assert outside == []
        assert inside == TOLERANCES


def raising_zero_comparisons(tree: ast.AST, function: str = "") -> list[tuple[str, int]]:
    """(enclosing function, line) of each `if` whose body raises and whose test, `not` aside, is one
    comparison with the constant 0."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and any(isinstance(statement, ast.Raise) for statement in node.body):
            test = node.test.operand if isinstance(node.test, ast.UnaryOp) and isinstance(node.test.op, ast.Not) \
                else node.test
            if isinstance(test, ast.Compare) and len(test.ops) == 1 and any(
                isinstance(side, ast.Constant) and not isinstance(side.value, bool) and side.value == 0
                for side in (test.left, *test.comparators)
            ):
                found.append((function, node.lineno))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
        found += raising_zero_comparisons(node, inner)
    return found


class TestCheckPositive:
    """check_positive is the one check of a real that must be above zero: check_finite, then value > 0."""

    @pytest.mark.parametrize("value", [5e-324, 1e-300, 1, 2.5, np.float32(0.5), np.int64(3), 1e308])
    def test_accepts_positive_reals(self, value):
        check_positive("x", value)

    @pytest.mark.parametrize("value, shown", [(0, "0"), (0.0, "0.0"), (-0.0, "-0.0"), (-5e-324, "-5e-324"),
                                              (-1, "-1"), (np.float64(-2.5), "-2.5")])
    def test_rejects_zero_and_negatives(self, value, shown):
        with pytest.raises(ValueError) as info:
            check_positive("x", value)
        assert str(info.value) == f"x must be positive, got {shown}"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, "1", None, 10**400])
    def test_checks_finiteness_first(self, value):
        with pytest.raises(ValueError, match=r"^x must be finite, got "):
            check_positive("x", value)

    @pytest.mark.parametrize("error", [ValueError, ScheduleError])
    def test_raises_the_class_it_is_given(self, error):
        for value in (0.0, math.nan):
            with pytest.raises(error) as info:
                check_positive("x", value, error)
            assert type(info.value) is error

    def test_sizes_and_positivity_have_one_home(self):
        # sizes are counts checked by check_integer against fock's bounds, and the one inline
        # `if <one comparison with 0>: raise` is check_positive's own
        comparisons, sweep_entry_reads, size_checkers = [], [], []
        for path in sorted(SOURCES.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            comparisons += [(path.name, function) for function, _ in raising_zero_comparisons(tree)]
            for node in ast.walk(tree):
                if path.name != "fock.py" and (
                    isinstance(node, ast.Name) and node.id == "MAX_SWEEP_ENTRIES"
                    or isinstance(node, ast.Attribute) and node.attr == "MAX_SWEEP_ENTRIES"
                    or isinstance(node, ast.alias) and node.name == "MAX_SWEEP_ENTRIES"
                ):
                    sweep_entry_reads.append(f"{path.name}:{node.lineno}")
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "check_sweep_size":
                    size_checkers.append(f"{path.name}:{node.lineno}")
        assert comparisons == [("fock.py", "check_positive")]
        assert sweep_entry_reads == []
        assert size_checkers == []


def raising_array_tests(tree: ast.AST, function: str = "", assigned: dict | None = None) -> list[tuple[str, str]]:
    """(enclosing function, test source) of each `if` that raises, in its body or its else, and whose test
    reads an array's shape, dtype or ndim, or an isfinite other than the scalar rule's math.isfinite. A
    name in the test counts by every value the enclosing function assigned to it."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function, assigned = tree.name, {}
        for node in ast.walk(tree):
            for target in node.targets if isinstance(node, ast.Assign) else ():
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, []).append(node.value)

    def reads_array(expression, seen=()):
        for node in ast.walk(expression):
            if isinstance(node, ast.Attribute) and (
                node.attr in ("shape", "dtype", "ndim") or node.attr == "isfinite" and ast.unparse(node.value) != "math"
            ):
                return True
            if isinstance(node, ast.Name) and node.id in (assigned or {}) and node.id not in seen:
                if any(reads_array(value, seen + (node.id,)) for value in assigned[node.id]):
                    return True
        return False

    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.If) and any(isinstance(statement, ast.Raise) for statement in node.body + node.orelse):
            if reads_array(node.test):
                found.append((function, ast.unparse(node.test)))
        found += raising_array_tests(node, function, assigned)
    return found


class TestCheckArray:
    """check_array is the one check of an array input: numpy can make an array of it, its dtype is int,
    unsigned, float or complex, its shape is the one asked for and its entries are finite."""

    def test_returns_the_array_itself(self):
        matrix = np.eye(2)
        assert check_array("m", matrix, (2, 2)) is matrix
        listed = check_array("m", [[1, 0], [0, 1]], (2, 2))
        assert isinstance(listed, np.ndarray) and listed.dtype.kind == "i"

    @pytest.mark.parametrize(
        "value, message",
        [
            ([[1.0], [1.0, 2.0]], "m must be an array of numbers, got [[1.0], [1.0, 2.0]]"),
            (np.eye(2, dtype=bool), "m must hold real or complex numbers, got dtype bool"),
            (np.array([["1", "0"], ["0", "1"]]), "m must hold real or complex numbers, got dtype <U1"),
            (np.eye(2, dtype=object), "m must hold real or complex numbers, got dtype object"),
            (None, "m must hold real or complex numbers, got dtype object"),
            (np.eye(3), "m must have shape (2, 2), got shape (3, 3)"),
            (np.array([[1.0, 2.0], [complex(0.0, math.inf), math.nan]]), "m must be finite, got infj at flat index 2"),
            (np.array([[1.0, 2.0], [3.0, -math.inf]], dtype=np.float32), "m must be finite, got -inf at flat index 3"),
        ],
    )
    def test_messages(self, value, message):
        with pytest.raises(ValueError) as info:
            check_array("m", value, (2, 2))
        assert str(info.value) == message

    def test_takes_no_flag(self):
        assert list(inspect.signature(check_array).parameters) == ["name", "value", "shape"]

    def test_guard_finds_a_raising_array_test(self):
        source = """
def direct(m):
    if m.shape != (2, 2):
        raise ValueError
def through_a_name(m):
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        raise ValueError
def in_the_else(m):
    if m.dtype.kind in "iufc":
        pass
    else:
        raise ValueError
def scalar(x):
    if not math.isfinite(x):
        raise ValueError
"""
        found = raising_array_tests(ast.parse(source))
        assert [function for function, _ in found] == ["direct", "through_a_name", "in_the_else"]

    def test_array_inputs_have_one_home(self):
        # outside check_array, the only raising tests of a shape, dtype or finiteness are _lift's inline
        # checks (the per-phase lift of sweep, where the rule's cost would show), the two result checks
        # (_check_score and _lift's overflow test) and single_mode_rotation's real-dtype clause
        found = []
        for path in sorted(SOURCES.glob("*.py")):
            tests = raising_array_tests(ast.parse(path.read_text(encoding="utf-8")))
            found += [(path.name, function, test) for function, test in tests]
        assert [test for test in found if test[1] == "check_array"] == [
            ("fock.py", "check_array", "array.dtype.kind not in 'iufc'"),
            ("fock.py", "check_array", "array.shape != shape"),
            ("fock.py", "check_array", "not finite.all()"),
        ]
        assert [test for test in found if test[1] != "check_array"] == [
            ("holonomy.py", "single_mode_rotation", "phis.dtype.kind not in 'iuf'"),
            ("holonomy.py", "_lift", "u.shape != (2, 2)"),
            ("holonomy.py", "_lift", "not all(map(cmath.isfinite, scalars))"),
            ("holonomy.py", "_lift", "not unitary and (not np.isfinite(lifted).all())"),
            ("holonomy.py", "_check_score", "bad.size"),
        ]
