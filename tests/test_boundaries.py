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
    fit_rotation_phase,
    load_schedule,
    schedule_from_dict,
)
from holoent.cli import MAX_SCAN_POINTS, main
from holoent.entanglement import DensityMatrix
from holoent.fock import (
    MAX_DARK_PHOTONS,
    OccupationState,
    basis_state,
    check_finite,
    check_integer,
    dark_basis,
    occupation_basis,
)
from holoent.holonomy import (
    RotationFamily,
    entropy_at_phase,
    fock_lift,
    max_entropy_over_phase,
    multimode_lift,
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
# values no real argument accepts: non-finite, bools, text and None
bad_reals = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), True, False, "1", None])


def _call(entry, bad):
    """entry is (argument name, call with the bad value, error class)."""
    name, call, error = entry
    with pytest.raises(error, match=rf"^{name} must be|^\S+ photons exceed the bound"):
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
]


class TestLibraryEntryPoints:
    @settings(max_examples=60)
    @given(st.sampled_from(INTEGER_ENTRIES), bad_integers)
    def test_bad_integer_names_the_argument(self, entry, bad):
        _call(entry, bad)

    @settings(max_examples=30)
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

    def test_occupation_sector_is_bounded_before_it_is_enumerated(self, monkeypatch):
        # C(6, 3) = 20 four-mode tuples hold 80 entries; a bound this small also keeps an
        # unbounded enumeration from being reached where the sector check is missing
        monkeypatch.setattr(fock, "MAX_SWEEP_ENTRIES", 80)
        assert len(occupation_basis(3, 4)) == 20
        with pytest.raises(ValueError, match=r"^4 photons in 4 modes exceed the bound 80 on occupation entries$"):
            occupation_basis(4, 4)
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"^1023 photons in 1023 modes exceed the bound"):
            occupation_basis(MAX_DARK_PHOTONS, MAX_DARK_PHOTONS)

    def test_dark_photon_bound_is_inclusive(self):
        assert len(dark_basis(MAX_DARK_PHOTONS).states) == MAX_DARK_PHOTONS + 1
        with pytest.raises(ValueError, match=rf"^photon_count must be in \[0, {MAX_DARK_PHOTONS}\]"):
            dark_basis(MAX_DARK_PHOTONS + 1)


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
