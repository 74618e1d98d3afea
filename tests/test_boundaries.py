"""Boundary properties: every integer and real-valued input is checked where it enters.

Library entry points raise a ValueError (ScheduleError for schedules) that names
the argument; the CLI turns each bad option into exit code 2 with an `error:`
line and no traceback, and writes no file.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from holoent import fock
from holoent.adiabatic import (
    CouplingProfile,
    PulseSchedule,
    ScheduleError,
    dark_holonomy,
    default_schedule,
    diabatic_scan,
    fit_rotation_phase,
    load_schedule,
    lz_error,
    schedule_from_dict,
)
from holoent.cli import MAX_SCAN_POINTS, main
from holoent.entanglement import DensityMatrix, log_negativity_bits, partial_transpose, reduce
from holoent.fock import (
    MAX_DARK_PHOTONS,
    SHOWN_CHARS,
    OccupationState,
    PureState,
    basis_state,
    check_finite,
    check_integer,
    dark_basis,
    occupation_basis,
)
from holoent.holonomy import (
    MAX_LIFT_PHOTONS,
    RotationFamily,
    apply_holonomy,
    entropy_at_phase,
    fock_lift,
    max_entropy_over_phase,
    multimode_lift,
    single_mode_rotation,
    u3,
)
from holoent.open_system import LossConfig
from test_adiabatic import far_profile


def idle_schedule(z_span=(-10.0, 10.0), steps=320) -> PulseSchedule:
    """test_adiabatic.idle_schedule with its span or step cap replaced."""
    return PulseSchedule(far_profile(), far_profile(), far_profile(), z_span, steps=steps)


# values no integer argument accepts: non-finite, huge, negative, non-integral, integral floats,
# bools, text and None; every integer argument here has a lower bound of 0 or more
bad_integers = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1, 2.5, 2.0, np.float64(3.0), True, False, "3", None, 10**30]
)
# values no real argument accepts: non-finite, an int past the float range, bools, text and None
bad_reals = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64(math.nan), 10**400, True, False, "1", None]
)


def _call(entry, bad):
    """entry is (argument name, call with the bad value, error class)."""
    name, call, error = entry
    with pytest.raises(error, match=rf"^{name} must be"):
        call(bad)


INTEGER_ENTRIES = [
    ("photon_count", lambda v: multimode_lift(np.eye(2), v), ValueError),
    ("photon_count", lambda v: fock_lift(np.eye(2), v), ValueError),
    ("photon_count", lambda v: dark_holonomy(idle_schedule(), v), ValueError),
    ("photon_count", lambda v: fit_rotation_phase(np.eye(3), v), ValueError),
    ("photon_count", RotationFamily, ValueError),
    ("input_index", lambda v: RotationFamily(2).outputs(0.1, v), ValueError),
    ("photon_count", lambda v: entropy_at_phase(0.3, v, 1), ValueError),
    ("input_index", lambda v: entropy_at_phase(0.3, 2, v), ValueError),
    ("points", lambda v: max_entropy_over_phase(2, 1, v), ValueError),
    ("photon_count", lambda v: max_entropy_over_phase(v, 1, 64), ValueError),
    ("input_index", lambda v: max_entropy_over_phase(2, v, 64), ValueError),
    ("photon_count", dark_basis, ValueError),
    ("photon_count", lambda v: basis_state(v, 0), ValueError),
    ("index", lambda v: basis_state(2, v), ValueError),
    ("photon_count", lambda v: occupation_basis(v, 2), ValueError),
    ("mode_count", lambda v: occupation_basis(2, v), ValueError),
    ("n_east", lambda v: OccupationState(v, 0), ValueError),
    ("n_west", lambda v: OccupationState(0, v), ValueError),
    ("steps", lambda v: idle_schedule(steps=v), ScheduleError),
    ("steps", lambda v: LossConfig(t_max=1.0, steps=v), ValueError),
]
REAL_ENTRIES = [
    ("peak", lambda v: CouplingProfile(v, 0.0, 1.0), ScheduleError),
    ("center", lambda v: CouplingProfile(1.0, v, 1.0), ScheduleError),
    ("sigma", lambda v: CouplingProfile(1.0, 0.0, v), ScheduleError),
    ("z_span", lambda v: idle_schedule(z_span=(v, 10.0)), ScheduleError),
    ("z_span", lambda v: idle_schedule(z_span=(-10.0, v)), ScheduleError),
    ("scale", lambda v: idle_schedule().dilate(v), ScheduleError),
    ("t_max", lambda v: LossConfig(t_max=v, steps=100), ValueError),
    ("omega_t", lz_error, ValueError),
    ("omega_t", lambda v: diabatic_scan(idle_schedule(), [3.0, v]), ValueError),
    ("phi", lambda v: entropy_at_phase(v, 2, 1), ValueError),
]


class TestLibraryEntryPoints:
    @settings(max_examples=60)
    @given(st.sampled_from(INTEGER_ENTRIES), bad_integers)
    def test_bad_integer_names_the_argument(self, entry, bad):
        _call(entry, bad)

    @settings(max_examples=90)  # every one of the 10 x 9 (entry, value) pairs
    @given(st.sampled_from(REAL_ENTRIES), bad_reals)
    def test_bad_real_names_the_argument(self, entry, bad):
        _call(entry, bad)

    @pytest.mark.parametrize(
        "name, call, error",
        [
            ("photon_count", lambda: fit_rotation_phase(np.eye(2), True), ValueError),
            ("photon_count", lambda: dark_holonomy(idle_schedule(), True), ValueError),
            ("input_index", lambda: max_entropy_over_phase(2, True, 64), ValueError),
            ("points", lambda: max_entropy_over_phase(2, 1, 8.5), ValueError),
            ("index", lambda: basis_state(2, True), ValueError),
            ("index", lambda: basis_state(2, 1.5), ValueError),
            ("photon_count", lambda: dark_basis(2.5), ValueError),
            ("n_east", lambda: OccupationState(1.5, 0), ValueError),
            ("n_east", lambda: OccupationState(math.nan, 0), ValueError),
            ("n_east", lambda: OccupationState(True, 0), ValueError),
            ("input_index", lambda: RotationFamily(2).outputs(0.1, True), ValueError),
            ("mode_count", lambda: occupation_basis(2, 1.5), ValueError),
            ("peak", lambda: CouplingProfile("1", 0, 1), ScheduleError),
            ("peak", lambda: CouplingProfile(True, 0.0, 1.0), ScheduleError),
            ("z_span", lambda: idle_schedule(z_span=(None, 1.0)), ScheduleError),
            ("scale", lambda: idle_schedule().dilate("2"), ScheduleError),
            ("dims", lambda: DensityMatrix(np.eye(1), (1.0,)), ValueError),
            ("dims", lambda: DensityMatrix(np.eye(1), (True, 1)), ValueError),
            ("dims", lambda: DensityMatrix(np.eye(1), 1), ValueError),
            ("dims", lambda: DensityMatrix(np.eye(1), None), ValueError),
            ("dims", lambda: DensityMatrix(np.eye(1), ()), ValueError),
            ("east", lambda: dataclasses.replace(default_schedule(), east=None), ScheduleError),
            ("aux", lambda: dataclasses.replace(default_schedule(), aux=(1.0, 0.0, 1.0)), ScheduleError),
            ("z_span", lambda: dataclasses.replace(default_schedule(), z_span=None), ScheduleError),
            ("z_span", lambda: idle_schedule(z_span=(-10.0,)), ScheduleError),
            ("z_span", lambda: idle_schedule(z_span=(-10.0, 0.0, 10.0)), ScheduleError),
        ],
    )
    def test_inputs_that_used_to_reach_numpy(self, name, call, error):
        with pytest.raises(error, match=rf"^{name} must be"):
            call()


# every library entry point that takes a photon count, with the range check_integer holds it to
PHOTON_COUNT_ENTRIES = [
    ("RotationFamily", RotationFamily, 1, MAX_DARK_PHOTONS),
    ("entropy_at_phase", lambda v: entropy_at_phase(0.3, v, 0), 1, MAX_DARK_PHOTONS),
    ("fit_rotation_phase", lambda v: fit_rotation_phase(np.eye(3), v), 1, MAX_DARK_PHOTONS),
    ("max_entropy_over_phase", lambda v: max_entropy_over_phase(v, 0, 64), 1, MAX_DARK_PHOTONS),
    ("fock_lift", lambda v: fock_lift(np.eye(2), v), 1, MAX_LIFT_PHOTONS),
    ("multimode_lift", lambda v: multimode_lift(np.eye(2), v), 0, MAX_LIFT_PHOTONS),
    ("dark_basis", dark_basis, 0, MAX_DARK_PHOTONS),
    ("dark_holonomy", lambda v: dark_holonomy(idle_schedule(), v), 1, MAX_LIFT_PHOTONS),
]


class TestOnePhotonCountRule:
    """check_integer is the one check of a photon count: one message format, in the library and at the CLI."""

    @pytest.mark.parametrize(
        "call, bounds, value",
        [
            pytest.param(call, (lowest, highest), value, id=f"{name}-{value!r}")
            for name, call, lowest, highest in PHOTON_COUNT_ENTRIES
            for value in (lowest - 1, highest + 1, 2.5, True)
        ],
    )
    def test_library_message(self, call, bounds, value):
        lowest, highest = bounds
        with pytest.raises(ValueError, match=rf"^photon_count must be (an integer|in \[{lowest}, {highest}\]), got {value}$"):
            call(value)

    @pytest.mark.parametrize(
        "command, option, value",
        [
            (["basis"], "--photons", -1),
            (["basis"], "--photons", MAX_DARK_PHOTONS + 1),
            (["sweep", "--input", "1,0"], "--photons", 0),
            (["sweep", "--input", "1,0"], "--photons", MAX_LIFT_PHOTONS + 1),
            (["volume"], "--max-photons", 0),
            (["volume"], "--max-photons", 7),
        ],
    )
    def test_cli_message(self, command, option, value):
        code, err, text = run_main(command + [f"{option}={value}"])
        assert code == 2 and text is None
        assert re.match(rf"^error: --(photons|max-photons) must be in \[\d+, \d+\], got {value}$", err), err


class TestEveryFinitePhase:
    """Every phase check_finite accepts gives all-finite output or a ValueError naming phi."""

    @settings(max_examples=200)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(1e308)
    @example(-1e308)
    @example(9e307)
    @example(3.1e307)
    @example(5e-324)
    def test_finite_output_or_named_error(self, phi):
        calls = [lambda: u3(phi), lambda: single_mode_rotation(phi)]
        calls += [lambda photons=photons, index=index: entropy_at_phase(phi, photons, index)
                  for photons in range(1, 7) for index in range(photons + 1)]
        for call in calls:
            try:
                value = call()
            except ValueError as exc:
                assert str(exc).startswith("phi"), exc
            else:
                assert np.isfinite(value).all()


class TestCheckers:
    def test_integer_messages(self):
        with pytest.raises(ValueError, match=r"^n must be an integer, got '3'$"):
            check_integer("n", "3", 0, 4)
        with pytest.raises(ValueError, match=r"^n must be an integer, got True$"):
            check_integer("n", True, 0, 4)
        with pytest.raises(ValueError, match=r"^n must be in \[0, 4\], got 1024$"):
            check_integer("n", np.int64(1024), 0, 4)

    def test_integer_raises_the_given_class_and_accepts_the_ends(self):
        with pytest.raises(ScheduleError):
            check_integer("steps", 15, 16, 64, ScheduleError)
        for value in (16, np.int32(64), np.uint8(20)):
            check_integer("steps", value, 16, 64, ScheduleError)

    def test_finite_messages(self):
        with pytest.raises(ScheduleError, match=r"^x must be finite, got 'a'$"):
            check_finite("x", "a", ScheduleError)
        with pytest.raises(ValueError, match=r"^x must be finite, got nan$"):
            check_finite("x", math.nan)
        for value in (0, -1e308, np.float32(2.5), np.int64(3)):
            check_finite("x", value)

    @pytest.mark.parametrize(
        "call, error, name",
        [
            (lambda: check_integer("n", 10**5000, 0, 5), ValueError, "n"),
            (lambda: check_finite("x", 10**5000), ValueError, "x"),
            (lambda: CouplingProfile(1.0, 10**5000, 1.0), ScheduleError, "center"),
            (lambda: idle_schedule(steps=10**5000), ScheduleError, "steps"),
            (lambda: LossConfig(t_max=-(10**5000)), ValueError, "t_max"),
        ],
    )
    def test_an_integer_past_the_str_limit_is_rejected_by_name(self, call, error, name):
        # str() of an int over 4300 digits raises the interpreter's own ValueError, which names no input
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        message = str(info.value)
        assert message.startswith(f"{name} must be") and message.endswith(" integer of 5001 digits")
        assert len(message) <= 200

    @pytest.mark.parametrize(
        "value, shown",
        [(10**20 - 1, "99999999999999999999"), (-(10**20) + 1, "-99999999999999999999"),
         (10**20, "an integer of 21 digits"), (-(10**20), "a negative integer of 21 digits"),
         (10**30 - 1, "an integer of 30 digits"), (10**30, "an integer of 31 digits"),
         (10**400 + 1, "an integer of 401 digits")],
    )
    def test_an_integer_of_more_than_20_digits_is_shown_by_its_digit_count(self, value, shown):
        with pytest.raises(ValueError, match=rf"^n must be in \[0, 5\], got {shown}$"):
            check_integer("n", value, 0, 5)

    def test_occupation_sector_is_bounded_before_it_is_enumerated(self, monkeypatch):
        # C(6, 3) = 20 four-mode tuples hold 80 entries; a bound this small also keeps an
        # unbounded enumeration from being reached where the sector check is missing
        monkeypatch.setattr(fock, "MAX_SWEEP_ENTRIES", 80)
        assert len(occupation_basis(3, 4)) == 20
        # C(7, 4) = 35 tuples hold 140 entries
        message = r"^occupation entries of 4 photons in 4 modes must be in \[0, 80\], got 140$"
        with pytest.raises(ValueError, match=message):
            occupation_basis(4, 4)
        monkeypatch.undo()
        # C(2045, 1023) * 1023 has 617 digits: the message counts them instead of printing them
        digits = len(str(math.comb(2 * MAX_DARK_PHOTONS - 1, MAX_DARK_PHOTONS) * MAX_DARK_PHOTONS))
        with pytest.raises(ValueError, match=rf"^occupation entries of 1023 photons in 1023 modes must be in "
                                             rf"\[0, {fock.MAX_SWEEP_ENTRIES}\], got an integer of {digits} digits$"):
            occupation_basis(MAX_DARK_PHOTONS, MAX_DARK_PHOTONS)

    def test_dark_photon_bound_is_inclusive(self):
        assert len(dark_basis(MAX_DARK_PHOTONS).states) == MAX_DARK_PHOTONS + 1
        with pytest.raises(ValueError, match=rf"^photon_count must be in \[0, {MAX_DARK_PHOTONS}\]"):
            dark_basis(MAX_DARK_PHOTONS + 1)


# each array input: (entry point, argument name, call, a value it accepts); the value's shape is the one
# the entry point requires (PureState flattens its amplitudes first; single_mode_rotation takes any shape),
# and its entries are exact in float32. U3_HALF_PI is u3(pi/2), the swap of |2,0> and |0,2>
U3_HALF_PI = [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
MIXED = np.diag([0.5, 0.25, 0.25])
ARRAY_ENTRIES = [
    ("single_mode_rotation", "phi", single_mode_rotation, [0.5, 0.25, 0.125]),
    ("fit_rotation_phase", "block", lambda v: fit_rotation_phase(v, 2), U3_HALF_PI),
    ("apply_holonomy", "u", lambda v: apply_holonomy(v, basis_state(2, 1)), U3_HALF_PI),
    ("DensityMatrix", "matrix", lambda v: DensityMatrix(v, (3,)), MIXED),
    ("PureState", "amplitudes", lambda v: PureState(dark_basis(2), v), [1, 0, 0]),
    ("log_negativity_bits", "matrices", lambda v: log_negativity_bits(v, (3, 1)), MIXED),
]
RAGGED = [[1.0, 2.0], [3.0]]


def array_message(entry: str, name: str, case: str) -> str | None:
    """The whole message of ValueError for one bad input `case`, or None where the entry point accepts it."""
    required = "(3,)" if entry == "PureState" else "(3, 3)"
    if entry == "single_mode_rotation":  # a scalar passes check_finite, and only reals are phases
        shapes = {"0-d": None, "1-d": None, "wrong shape": None, "str": "phi must be finite, got 'abc'",
                  "bool": "phi must hold real numbers, got dtype bool"}
    else:
        shapes = {"0-d": f"got shape {'(1,)' if entry == 'PureState' else '()'}", "1-d": "got shape (2,)",
                  "wrong shape": f"got shape {'(4,)' if entry == 'PureState' else '(2, 2)'}"}
        shapes = {case: f"{name} must have shape {required}, {got}" for case, got in shapes.items()}
        shapes.update(str=f"{name} must hold real or complex numbers, got dtype <U3",
                      bool=f"{name} must hold real or complex numbers, got dtype bool")
    shapes.update(ragged=f"{name} must be an array of numbers, got {RAGGED!r}",
                  nan=f"{name} must be finite, got nan at flat index 2",
                  inf=f"{name} must be finite, got -inf at flat index 2")
    return shapes[case]


def bad_array(good, case: str):
    good = np.asarray(good, dtype=float)
    if case in ("nan", "inf"):
        bad = good.copy()
        bad.flat[2] = math.nan if case == "nan" else -math.inf
        return bad
    return {"str": "abc", "ragged": RAGGED, "bool": good != 0.0, "0-d": np.float64(1.0), "1-d": np.ones(2),
            "wrong shape": np.ones((2, 2))}[case]


class TestArrayInputs:
    """fock.check_array is the one check of an array input's type, shape and finiteness: each entry point
    names a bad array in a ValueError of at most 200 characters, and names its first non-finite entry."""

    @pytest.mark.parametrize("case", ["str", "ragged", "bool", "0-d", "1-d", "wrong shape", "nan", "inf"])
    @pytest.mark.parametrize("entry, name, call, good", ARRAY_ENTRIES, ids=[e[0] for e in ARRAY_ENTRIES])
    def test_bad_array_is_named(self, entry, name, call, good, case):
        message = array_message(entry, name, case)
        if message is None:
            call(bad_array(good, case))
            return
        with pytest.raises(ValueError) as info:
            call(bad_array(good, case))
        assert type(info.value) is ValueError
        assert str(info.value) == message
        assert len(message) <= 200

    @pytest.mark.parametrize("entry, name, call, good", ARRAY_ENTRIES, ids=[e[0] for e in ARRAY_ENTRIES])
    def test_every_numeric_dtype_and_a_nested_list_pass(self, entry, name, call, good):
        good = np.asarray(good)
        values = [good.tolist(), good.astype(np.float32), good.astype(float)]
        if entry != "single_mode_rotation":  # phases are real
            values += [good.astype(np.complex64), good.astype(complex)]
        if good.dtype.kind == "i":
            values += [good.astype(np.int8), good.astype(np.int64)]
        if good.dtype.kind == "i" and good.min() >= 0:
            values.append(good.astype(np.uint8))
        for value in values:
            call(value)

    def test_a_long_ragged_sequence_is_shown_cut(self):
        with pytest.raises(ValueError) as info:
            DensityMatrix([[0.5] * 1000, [0.5]], (2,))
        message = str(info.value)
        assert message.startswith("matrix must be an array of numbers, got [[0.5, 0.5, ")
        assert message.endswith("...") and len(message) <= 200


class TestShownValues:
    """Each check shows at most SHOWN_CHARS characters of the value it rejects, the last three "..."."""

    @pytest.mark.parametrize(
        "call, start",
        [
            (lambda text: check_integer("n", text, 0, 5), "n must be an integer, got 'xxx"),
            (lambda text: check_finite("x", text), "x must be finite, got 'xxx"),
            (lambda text: OccupationState.from_label(text), "expected 'n_east,n_west', got 'xxx"),
            (lambda text: OccupationState.from_label(text.replace("x", "1")), "expected 'n_east,n_west', got '111"),
            (lambda text: reduce(DensityMatrix(np.eye(4) / 4.0, (2, 2)), text),
             "keep must be 'east' or 'west', got 'xxx"),
            (lambda text: partial_transpose(DensityMatrix(np.eye(4) / 4.0, (2, 2)), text),
             "side must be 'east' or 'west', got 'xxx"),
        ],
    )
    @pytest.mark.parametrize("length", [3000, 5000])
    def test_long_text_is_cut(self, call, start, length):
        with pytest.raises(ValueError) as info:
            call("x" * length)
        message = str(info.value)
        assert message.startswith(start) and message.endswith("...")
        assert len(message) <= 200 and len(message) - message.index("got ") - 4 == SHOWN_CHARS

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: reduce(DensityMatrix(np.eye(1), (1,) * 3000), "east"),
             "operation needs a bipartite density matrix, got dims (1, 1, 1, "),
            (lambda: DensityMatrix(np.eye(1), {1: "x" * 3000}),
             "dims must be a non-empty sequence of mode dimensions, got {1: 'xx"),
            (lambda: idle_schedule(z_span=[1.0] * 3000), "z_span must be a pair of finite reals, got [1.0, 1.0, "),
            (lambda: dataclasses.replace(default_schedule(), aux=("x" * 3000,)),
             "aux must be a CouplingProfile, got ('xxx"),
        ],
    )
    def test_long_sequence_is_cut(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(message) and str(info.value).endswith("...")
        assert len(str(info.value)) <= 200

    def test_short_text_is_shown_whole(self):
        with pytest.raises(ValueError, match=r"^expected 'n_east,n_west', got '1;1'$"):
            OccupationState.from_label("1;1")


# option text around every boundary: non-finite, huge, negative, zero, non-integral, bool-like,
# empty and non-numeric, plus a few valid values so that some runs succeed
EDGE_TEXT = ["nan", "inf", "-inf", "1e308", "-1", "0", "2.5", "2.0", "True", "true", "None", "", "ten", str(10**30)]
COUNT_TEXT = st.sampled_from(EDGE_TEXT + ["1", "2", "16"])


def run_main(argv: list[str]) -> tuple[int, str, str | None]:
    """Exit code, stderr and output text (None if no file was written) of one in-process run."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.txt")
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + ["--output", out])
            except SystemExit as exc:
                code = exc.code
        text = open(out, encoding="utf-8").read() if os.path.exists(out) else None
        assert os.listdir(tmp) in ([], ["out.txt"])  # no temp file left behind
    return code, err.getvalue(), text


def check_run(argv: list[str]) -> None:
    code, err, text = run_main(argv)
    event(f"exit {code}")
    assert "Traceback" not in err
    if code == 0:
        assert text is not None and "nan" not in text.lower()
    else:
        assert code == 2, (argv, code, err)
        assert "error:" in err
        assert text is None


class TestOverflowingSpan:
    """A z_span whose ends are finite but whose length is not is refused where the schedule is built."""

    @pytest.mark.parametrize(
        "build",
        [lambda: idle_schedule(z_span=(-1e308, 1e308)), lambda: default_schedule().dilate(1e307)],
        ids=["constructor", "dilate"],
    )
    def test_library_names_z_span(self, build):
        with pytest.raises(ScheduleError, match=r"^z_span length must be finite, got inf$"):
            build()

    def test_diabatic_exits_5_before_its_first_propagation(self, cf4_steps):
        # the scan's last point dilates the packaged span (-17, 17) by 1e307; every point is dilated first
        code, err, text = run_main(["diabatic", "--scan-from", "2", "--scan-to", "1e308"])
        assert (code, err, text) == (5, "error: z_span length must be finite, got inf\n", None)
        assert cf4_steps == []


class TestCliBoundaries:
    @settings(max_examples=25)
    @given(COUNT_TEXT, COUNT_TEXT, st.sampled_from(["1,0", "1,1", "nan,0", "1.5,0", "-1,2", "true,0", ""]),
           st.booleans())
    @example("2", "16", "1,1", True)
    def test_sweep(self, photons, points, label, json_flag):
        check_run(["sweep", "--input", label, "--photons", photons, "--points", points] + ["--json"] * json_flag)

    @settings(max_examples=20)
    @given(COUNT_TEXT, COUNT_TEXT)
    @example("2", "16")
    def test_volume(self, max_photons, points):
        check_run(["volume", "--max-photons", max_photons, "--points", points])

    @settings(max_examples=20)
    @given(st.sampled_from(EDGE_TEXT + ["2"]), st.sampled_from(EDGE_TEXT + ["2.5"]),
           st.sampled_from(["nan", "inf", "-inf", "-1", "0", "True", "", "ten", "3.0"]))
    @example("2", "2.5", "3.0")
    def test_diabatic(self, scan_points, scan_from, scan_to):
        # a --scan-to past every dilation the packaged schedule can resolve is left out: it
        # is a valid number that ends in exit 4 or 5, not an invalid input
        check_run(["diabatic", "--scan-points", scan_points, "--scan-from", scan_from, "--scan-to", scan_to])

    @settings(max_examples=20)
    @given(COUNT_TEXT, st.booleans())
    @example("16", False)
    def test_basis(self, photons, json_flag):
        check_run(["basis", "--photons", photons] + ["--json"] * json_flag)

    def test_scan_points_over_bound_exit_2_before_allocating(self):
        code, err, text = run_main(["diabatic", "--scan-points", str(MAX_SCAN_POINTS + 1)])
        assert code == 2 and f"--scan-points must be in [2, {MAX_SCAN_POINTS}]" in err and text is None

    @pytest.mark.parametrize(
        "command, option, value",
        [
            (command, option, value)
            for command, option in [
                (["basis"], "--photons"),
                (["sweep", "--input", "1,1"], "--photons"),
                (["sweep", "--input", "1,1"], "--points"),
                (["loss"], "--t-max"),
                (["loss"], "--steps"),
                (["volume"], "--max-photons"),
                (["volume"], "--points"),
                (["diabatic"], "--scan-from"),
                (["diabatic"], "--scan-to"),
                (["diabatic"], "--scan-points"),
            ]
            for value in ["0", "-1", "nan", "inf", "-inf"]
            if command + [option, value] != ["basis", "--photons", "0"]  # the zero-photon basis is valid
        ],
    )
    def test_out_of_range_option_exits_2(self, command, option, value):
        # OPTION=VALUE, so that argparse reads "-inf" as a value, not as an option
        code, err, text = run_main(command + [f"{option}={value}"])
        assert code == 2, (command, option, value, err)
        assert "error:" in err and "Traceback" not in err
        assert text is None


# schedule values the loader used to coerce with float() or cut to two z_span entries, and ints
# beyond the float range, which float() refused without naming the field
LOADER_CASES = [
    ("peak", lambda data: data["east"].update(peak="1.5")),
    ("peak", lambda data: data["east"].update(peak=True)),
    ("sigma", lambda data: data["west"].update(sigma=None)),
    ("z_span", lambda data: data.update(z_span=["-17", 17])),
    ("z_span", lambda data: data.update(z_span=[-17, 17, 0])),
    ("peak", lambda data: data["east"].update(peak=10**400)),
    ("z_span", lambda data: data.update(z_span=[-17, 10**400])),
]


class TestScheduleLoader:
    @pytest.mark.parametrize("field, edit", LOADER_CASES)
    def test_field_passes_to_its_constructor_uncoerced(self, field, edit):
        data = default_schedule().to_dict()
        edit(data)
        with pytest.raises(ScheduleError, match=rf"^{field} must be"):
            schedule_from_dict(data)

    @pytest.mark.parametrize("field, edit", LOADER_CASES)
    def test_diabatic_rejects_it_with_exit_5(self, tmp_path, field, edit):
        data = default_schedule().to_dict()
        edit(data)
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps(data))
        code, err, text = run_main(["diabatic", "--schedule", str(path)])
        assert code == 5 and f"error: {field} must be" in err and "Traceback" not in err
        assert text is None

    def test_numbers_load_as_floats(self):
        data = default_schedule().to_dict()
        data["aux"]["center"] = 0
        data["z_span"] = [-17, 17]
        loaded = schedule_from_dict(data)
        assert type(loaded.aux.center) is float and loaded.z_span == (-17.0, 17.0)
        assert loaded == default_schedule() and hash(loaded) == hash(default_schedule())

    # json.load raises a plain ValueError for an integer literal over Python's 4300-digit limit,
    # and a RecursionError for nesting deeper than the interpreter's recursion limit
    @pytest.mark.parametrize("text", ['{"steps": 1' + "0" * 5000 + "}", "[" * 200_000 + "]" * 200_000],
                             ids=["5001-digit-steps", "200000-deep"])
    def test_unparsable_file_is_a_schedule_error(self, tmp_path, text):
        path = tmp_path / "schedule.json"
        path.write_text(text)
        with pytest.raises(ScheduleError, match="^schedule file is not valid JSON"):
            load_schedule(path)
        code, err, out = run_main(["diabatic", "--schedule", str(path)])
        assert code == 5 and "error: schedule file is not valid JSON" in err and "Traceback" not in err
        assert out is None
