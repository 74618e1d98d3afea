import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.strategies import composite

from holoent import cli, holonomy, open_system
from holoent.adiabatic import MAX_STEPS, default_schedule
from holoent.cli import ROW_BLOCK, _fmt, _render_csv, _render_json, main
from holoent.fock import MAX_SWEEP_ENTRIES, MEMORY_BUDGET_BYTES
from holoent.holonomy import DEFAULT_SWEEP_POINTS, MAX_LIFT_PHOTONS
from holoent.open_system import MAX_LOSS_STEPS, STEP_SIZE_GUARD
from render_oracle import render_csv, render_json


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "holoent", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


# the largest P with (P + 1)^2 <= MAX_SWEEP_ENTRIES, where fock.max_sweep_points(P) is still >= 0
BASIS_PHOTON_BOUND = math.isqrt(MAX_SWEEP_ENTRIES) - 1


def main_in_process(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process run; argparse errors leave through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# option text that neither loss option accepts: non-finite, huge, zero, empty and non-numeric
bad_loss_text = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e308", "0", "-0", "0.0", "", "ten"])
# with the default 1000 steps: negative or zero, or past the step-size guard at t_max = 10
bad_t_max = bad_loss_text | st.floats(max_value=0.0).map(repr) | st.floats(min_value=10.001).map(repr)
# non-positive, above MAX_LOSS_STEPS, or float text (integral or not), which int() refuses
bad_steps = (
    bad_loss_text
    | st.integers(max_value=0).map(str)
    | st.integers(MAX_LOSS_STEPS + 1, 10**30).map(str)
    | st.floats().map(repr)
)


@composite
def valid_loss_args(draw) -> tuple[str, str]:
    """--t-max and --steps text inside the step-size guard."""
    steps = draw(st.integers(1, 2000))
    t_max = draw(st.floats(min_value=0.0, max_value=STEP_SIZE_GUARD * steps, exclude_min=True))
    return repr(t_max), str(steps)


# signed zeros, subnormals, extremes, non-finite values and inexact decimals
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, math.nan, math.inf, -math.inf, 1 / 3, 0.1 + 0.2]
)
# text with what CSV quotes (comma, quote, line breaks), what a %-template reads, spaces and a non-ASCII letter
cell_text = st.text(alphabet=',"% \r\nab1\u00e9', max_size=6)


@composite
def tables(draw) -> tuple[dict, list[dict]]:
    """A table as renderer columns, with at least one float column, and as the oracle's per-row records.

    Each float or text column repeats a short drawn list up to the row count, which runs past two row blocks.
    """
    rows = draw(st.integers(0, 2 * ROW_BLOCK + 3))
    kinds = draw(st.lists(st.sampled_from(["float", "constant", "text"]), min_size=1, max_size=5).filter(
        lambda kinds: "float" in kinds))
    names = draw(st.lists(cell_text.filter(bool), min_size=len(kinds), max_size=len(kinds), unique=True))
    columns = {}
    for name, kind in zip(names, kinds):
        if kind == "float":
            columns[name] = np.resize(draw(st.lists(edge_floats | st.floats(), min_size=1, max_size=8)), rows)
        elif kind == "constant":
            columns[name] = draw(cell_text)
        else:
            cells = draw(st.lists(cell_text | st.booleans(), min_size=1, max_size=8))
            columns[name] = [cells[k % len(cells)] for k in range(rows)]
    records = [
        {name: column if isinstance(column, str) else column[k] for name, column in columns.items()}
        for k in range(rows)
    ]
    return columns, records


def first_difference(text: str, expected: str) -> tuple[int, str, str] | None:
    """None if the texts are equal, else the first differing offset and the text of each around it.

    Short, so a failing example is reported without diffing two whole tables.
    """
    if text == expected:
        return None
    k = len(os.path.commonprefix([text, expected]))
    return k, text[max(0, k - 40) : k + 40], expected[max(0, k - 40) : k + 40]


def peak_bytes(argv: list[str]) -> int:
    """The tracemalloc peak of one successful in-process run."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_schedule_file(tmp_path: Path, steps: int = 6000) -> Path:
    data = default_schedule().to_dict()
    data["steps"] = steps
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(data))
    return path


def unreadable_schedule(tmp_path: Path, case: str) -> Path:
    if case == "missing":
        return tmp_path / "no_such_schedule.json"
    if case == "directory":
        return tmp_path
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(default_schedule().to_dict()).encode() + b" \xff\n")
    return path


class TestBasisCommand:
    def test_prints_labels(self):
        cp = run_cli("basis", "--photons", "2")
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout.splitlines() == ["2,0", "1,1", "0,2"]

    def test_zero_photons(self):
        cp = run_cli("basis", "--photons", "0")
        assert cp.returncode == 0
        assert cp.stdout.splitlines() == ["0,0"]

    def test_json_format(self):
        cp = run_cli("basis", "--photons", "3", "--json")
        assert json.loads(cp.stdout) == ["3,0", "2,1", "1,2", "0,3"]

    def test_photons_at_bound(self, tmp_path):
        out = tmp_path / "basis.txt"
        assert main(["basis", "--photons", str(BASIS_PHOTON_BOUND), "--output", str(out)]) == 0
        labels = out.read_text().splitlines()
        assert len(labels) == BASIS_PHOTON_BOUND + 1
        assert labels[0] == f"{BASIS_PHOTON_BOUND},0" and labels[-1] == f"0,{BASIS_PHOTON_BOUND}"

    def test_photons_over_bound_exits_2_without_allocating(self, tmp_path, capsys):
        out = tmp_path / "basis.txt"
        tracemalloc.start()
        try:
            code = main(["basis", "--photons", str(BASIS_PHOTON_BOUND + 1), "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"--photons must be in [0, {BASIS_PHOTON_BOUND}]" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20

    def test_photons_over_bound_message_names_the_photon_bound(self, capsys):
        assert main(["basis", "--photons", str(BASIS_PHOTON_BOUND + 1)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --photons must be in [0, {BASIS_PHOTON_BOUND}], got {BASIS_PHOTON_BOUND + 1}\n"


class TestSweepCommand:
    def test_header_and_marker_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cp = run_cli("sweep", "--input", "1,1", "--photons", "2", "--points", "128",
                     "--output", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "phi,entropy_bits,purity,renyi2_bits,input_label"
        rows = read_csv(out)
        phis = [float(r["phi"]) for r in rows]
        assert phis == sorted(phis)
        me_rows = [r for r in rows if abs(float(r["phi"]) - 0.4776583090622546) < 1e-12]
        assert len(me_rows) == 1
        assert abs(float(me_rows[0]["entropy_bits"]) - 1.58496) < 1e-5
        assert abs(float(me_rows[0]["renyi2_bits"]) - math.log2(3.0)) < 1e-9
        quarter_rows = [r for r in rows if abs(float(r["phi"]) - math.pi / 4.0) < 1e-12]
        assert len(quarter_rows) == 1

    def test_zero_phase_row_is_separable(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--input", "2,0", "--points", "64", "--output", str(out))
        first = read_csv(out)[0]
        assert float(first["phi"]) == 0.0
        assert float(first["entropy_bits"]) == 0.0
        assert float(first["purity"]) == 1.0

    def test_east_pair_grid_maximum(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_cli("sweep", "--input", "2,0", "--points", "2048", "--output", str(out))
        rows = read_csv(out)
        best = max(rows, key=lambda r: float(r["entropy_bits"]))
        assert abs(float(best["entropy_bits"]) - 1.5) < 1e-5
        assert abs(float(best["phi"]) - math.pi / 4.0) < 1e-4

    def test_invalid_label_exits_2(self):
        assert run_cli("sweep", "--input", "x,y").returncode == 2
        assert run_cli("sweep", "--input", "3,0", "--photons", "2").returncode == 2

    @pytest.mark.parametrize("label", ["+1, 1", "\u0661,\u0661", "1_0,1", "-1,1", "1,+1", "\uff11,1", "1.0,1"])
    def test_non_canonical_label_exits_2(self, tmp_path, label):
        # only ASCII decimal numerals, which int() alone does not require
        out = tmp_path / "out.csv"
        code, err = main_in_process(["sweep", f"--input={label}", "--photons", "2", "--points", "4",
                                     "--output", str(out)])
        assert code == 2 and err == f"error: expected 'n_east,n_west', got {label!r}\n"
        assert not out.exists()

    def test_blank_padded_label_writes_the_canonical_label(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["sweep", "--input", " 1, 1 ", "--photons", "2", "--points", "4", "--output", str(out)]) == 0
        with out.open(newline="") as handle:
            assert {row["input_label"] for row in csv.DictReader(handle)} == {"1,1"}

    @pytest.mark.parametrize("label", ["1,1" * 1000, "1" * 5000, " " * 3000 + "1,1"],
                             ids=["3000-characters", "5000-digits", "padded-with-the-wrong-total"])
    def test_long_label_error_is_one_short_line(self, label):
        # the last label parses, with 2 photons where 3 are asked for
        cp = run_cli("sweep", "--input", label, "--photons", "3", "--points", "16")
        assert cp.returncode == 2 and cp.stdout == ""
        [line] = cp.stderr.splitlines()
        assert line.startswith("error: ") and "..." in line and len(line) <= 200

    def test_unwritable_path_exits_3(self, tmp_path):
        cp = run_cli("sweep", "--input", "1,1", "--points", "16",
                     "--output", str(tmp_path / "missing_dir" / "out.csv"))
        assert cp.returncode == 3
        assert not (tmp_path / "missing_dir").exists()

    def test_json_output(self, tmp_path):
        out = tmp_path / "sweep.json"
        run_cli("sweep", "--input", "1,1", "--points", "16", "--json", "--output", str(out))
        records = json.loads(out.read_text())
        assert records[0]["input_label"] == "1,1"
        assert {"phi", "entropy_bits", "purity", "renyi2_bits"} <= records[0].keys()

    def test_json_numbers_carry_the_csv_digits(self, tmp_path):
        args = ["sweep", "--input", "2,1", "--photons", "3", "--points", "64"]
        assert main([*args, "--json", "--output", str(tmp_path / "sweep.json")]) == 0
        assert main([*args, "--output", str(tmp_path / "sweep.csv")]) == 0
        records = json.loads((tmp_path / "sweep.json").read_text())
        numbers = [v for record in records for v in record.values() if isinstance(v, float)]
        assert len(numbers) == 4 * len(records)
        assert all(float(_fmt(v)) == v for v in numbers)
        csv_rows = read_csv(tmp_path / "sweep.csv")
        assert [{k: float(v) for k, v in r.items() if k != "input_label"} for r in csv_rows] == [
            {k: v for k, v in r.items() if k != "input_label"} for r in records
        ]

    def test_rows_across_rotation_blocks_are_the_pinned_lifts(self, tmp_path, monkeypatch):
        # 300 points and the markers make more than ROW_BLOCK rows, so the rotations come in two blocks
        sweep_amplitudes, calls = cli._sweep_amplitudes, []

        def recorded(phis, photons, index):
            calls.append((phis, photons, index, sweep_amplitudes(phis, photons, index)))
            return calls[-1][-1]

        monkeypatch.setattr(cli, "_sweep_amplitudes", recorded)
        argv = ["sweep", "--input", "4,2", "--photons", "6", "--points", "300", "--output", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        [(phis, photons, index, amplitudes)] = calls
        assert len(read_csv(tmp_path / "s.csv")) == len(phis) > ROW_BLOCK and (photons, index) == (6, 2)
        for phi, row in zip(phis, amplitudes, strict=True):
            assert np.array_equal(row, holonomy.fock_lift(holonomy.single_mode_rotation(phi), 6)[:, index])

    def test_quarter_marker_one_ulp_off_the_grid_is_written_once(self, tmp_path):
        # 75 (pi / 300) rounds one ulp away from pi/4: the marker must not add a second row with
        # the same phi and the same values
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", "1,1", "--points", "300", "--output", str(out)]) == 0
        phis = [row["phi"] for row in read_csv(out)]
        assert len(phis) == len(set(phis)) == 301  # the grid and the maximally entangled phase
        assert phis.count(_fmt(math.pi / 4.0)) == 1

    def test_markers_within_rounding_of_the_grid_are_dropped(self):
        # pi/4 is on every grid of a multiple of 4 points; k (pi / points) misses it by an ulp at 55 of them
        phi_me, off_by_rounding = holonomy.phi_maximally_entangled(), 0
        for points in range(4, 2049, 4):
            grid = np.arange(points) * (math.pi / points)
            off_by_rounding += grid[points // 4] != math.pi / 4.0
            phis = cli._sweep_phases(points)
            assert np.array_equal(phis[phis != phi_me], grid)
            assert len(phis) == points + 1  # the maximally entangled phase is never on the grid
        assert off_by_rounding == 55
        assert math.pi / 4.0 in cli._sweep_phases(1024)  # exact on a power-of-two grid

    def test_invalid_points_exits_2(self):
        assert run_cli("sweep", "--input", "1,1", "--points", "0").returncode == 2

    def test_photons_above_lift_bound_exits_2(self, tmp_path, capsys):
        photons = MAX_LIFT_PHOTONS + 1
        out = tmp_path / "out.csv"
        code = main(["sweep", "--input", f"{photons},0", "--photons", str(photons), "--points", "16",
                     "--output", str(out)])
        assert code == 2
        assert "--photons must be in" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_photons_exits_2_naming_the_bound(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["sweep", "--input", "1,0", "--photons", "0", "--points", "16", "--output", str(out)])
        assert code == 2
        assert f"--photons must be in [1, {MAX_LIFT_PHOTONS}], got 0" in capsys.readouterr().err
        assert not out.exists()


def smallest_photons_above_bound(points: int) -> int:
    photons = 1
    while (points + photons + 1) * (photons + 1) <= MAX_SWEEP_ENTRIES:
        photons += 1
    return photons


class TestSweepSizeBound:
    """Sizes one past MAX_SWEEP_ENTRIES exit 2 before anything of that size is allocated."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--input", "1,0", "--photons", "1", "--points", str(MAX_SWEEP_ENTRIES // 2 - 1)],
             f"--points must be in [1, {MAX_SWEEP_ENTRIES // 2 - 2}], got {MAX_SWEEP_ENTRIES // 2 - 1}"),
            (["volume", "--max-photons", "4", "--points", str(MAX_SWEEP_ENTRIES // 5 - 4)],
             f"--points must be in [8, {MAX_SWEEP_ENTRIES // 5 - 5}], got {MAX_SWEEP_ENTRIES // 5 - 4}"),
            # this photon count is past MAX_LIFT_PHOTONS too, which sweep checks first
            (
                [
                    "sweep",
                    "--input",
                    f"{smallest_photons_above_bound(DEFAULT_SWEEP_POINTS)},0",
                    "--photons",
                    str(smallest_photons_above_bound(DEFAULT_SWEEP_POINTS)),
                ],
                f"--photons must be in [1, {MAX_LIFT_PHOTONS}], "
                f"got {smallest_photons_above_bound(DEFAULT_SWEEP_POINTS)}",
            ),
            (
                [
                    "sweep",
                    "--input",
                    f"{MAX_LIFT_PHOTONS},0",
                    "--photons",
                    str(MAX_LIFT_PHOTONS),
                    "--points",
                    str(MAX_SWEEP_ENTRIES // (MAX_LIFT_PHOTONS + 1) - MAX_LIFT_PHOTONS),
                ],
                f"--points must be in [1, {MAX_SWEEP_ENTRIES // (MAX_LIFT_PHOTONS + 1) - MAX_LIFT_PHOTONS - 1}], "
                f"got {MAX_SWEEP_ENTRIES // (MAX_LIFT_PHOTONS + 1) - MAX_LIFT_PHOTONS}",
            ),
        ],
        ids=["sweep-points", "volume-points", "sweep-photons", "sweep-points-at-the-lift-bound"],
    )
    def test_exits_2_without_allocating(self, tmp_path, capsys, args, message):
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = main(args + ["--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        assert peak < 1 << 20


    @pytest.mark.parametrize("photons", [1, 2, 6, 42])
    def test_points_bound_passes_and_one_more_exits_2(self, tmp_path, monkeypatch, capsys, photons):
        # past the size checks, sweep parses --input and volume searches: both stop there
        def checked(*args):
            raise ValueError("checked")

        monkeypatch.setattr(cli, "_parse_input_label", checked)
        monkeypatch.setattr(holonomy, "max_entropy_over_phase", checked)
        out = tmp_path / "out.csv"
        commands = [(["sweep", "--input", "1,0", "--photons", str(photons)], 1)]
        if photons <= 6:
            commands.append((["volume", "--max-photons", str(photons)], 8))
        bound = MAX_SWEEP_ENTRIES // (photons + 1) - photons - 1
        for argv, lowest in commands:
            assert main([*argv, "--points", str(bound), "--output", str(out)]) == 2
            assert capsys.readouterr().err == "error: checked\n"
            assert main([*argv, "--points", str(bound + 1), "--output", str(out)]) == 2
            assert capsys.readouterr().err == f"error: --points must be in [{lowest}, {bound}], got {bound + 1}\n"
            assert not out.exists()


class TestSweepMemory:
    def test_peak_growth_per_point_fits_the_budget(self, tmp_path, monkeypatch):
        # the one-photon lift of R is R itself: skipping the lift keeps this run to a second or two
        monkeypatch.setattr(holonomy, "fock_lift", lambda u2, photon_count: u2)
        argv = ["sweep", "--input", "1,0", "--photons", "1", "--output", str(tmp_path / "sweep.csv"), "--points"]
        main([*argv, "8"])  # a first run imports modules: keep that out of the growth
        # both counts are past where the per-point arrays, not one rendered row block, set the peak
        small, large = peak_bytes([*argv, "8192"]), peak_bytes([*argv, "32768"])
        most_points = MAX_SWEEP_ENTRIES // 2 - 2  # the largest sweep fock.max_sweep_points allows, at one photon
        assert (large - small) / (32768 - 8192) * most_points <= MEMORY_BUDGET_BYTES


class TestRenderers:
    """The columnar renderers write what the per-row oracle writes, byte for byte."""

    @settings(max_examples=100)
    @given(tables())
    def test_csv_matches_per_row_oracle(self, table):
        columns, records = table
        assert first_difference("".join(_render_csv(columns)), render_csv(list(columns), records)) is None

    @settings(max_examples=100)
    @given(tables())
    def test_json_matches_per_row_oracle(self, table):
        columns, records = table
        assert first_difference("".join(_render_json(columns)), render_json(records)) is None

    @given(st.floats())
    @example(-0.0)
    @example(5e-324)
    @example(1 / 3)
    @example(0.1 + 0.2)
    def test_percent_format_is_the_format_rule(self, x):
        assert "%.12g" % x == format(x, ".12g") == _fmt(x)


class TestLossCommand:
    def test_option_defaults_are_the_loss_config_defaults(self):
        args = cli.build_parser().parse_args(["loss"])
        assert (args.t_max, args.steps) == (open_system.LossConfig().t_max, open_system.LossConfig().steps)

    def test_columns_and_invariants(self, tmp_path):
        out = tmp_path / "loss.csv"
        cp = run_cli("loss", "--t-max", "2", "--steps", "200", "--output", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "t_gamma,negativity_holonomic,negativity_bell,exp_decay"
        rows = read_csv(out)
        assert len(rows) == 201
        assert abs(float(rows[0]["negativity_holonomic"]) - math.log2(3.0)) < 1e-6
        assert abs(float(rows[0]["negativity_bell"]) - math.log2(3.0)) < 1e-6
        for row in rows:
            t = float(row["t_gamma"])
            assert abs(float(row["exp_decay"]) - math.exp(-t)) < 1e-9
            assert float(row["negativity_bell"]) >= float(row["negativity_holonomic"]) - 1e-9

    def test_step_guard_violation_exits_2(self):
        assert run_cli("loss", "--t-max", "10", "--steps", "10").returncode == 2

    def test_steps_over_bound_exits_2_without_allocating(self, tmp_path, capsys):
        out = tmp_path / "loss.csv"
        tracemalloc.start()
        try:
            code = main(["loss", "--t-max", "1", "--steps", str(10**12), "--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"steps must be in [1, {MAX_LOSS_STEPS}]" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20


    def test_peak_growth_per_sample_within_the_step_bound(self, tmp_path):
        argv = ["loss", "--t-max", "1", "--output", str(tmp_path / "loss.csv"), "--steps"]
        main([*argv, "100"])  # a first run imports modules: keep that out of the growth
        small, large = peak_bytes([*argv, "2048"]), peak_bytes([*argv, "16384"])
        # MAX_LOSS_STEPS allows MEMORY_BUDGET_BYTES at 1024 bytes per sample
        assert (large - small) / (16384 - 2048) <= 1024
        assert (MAX_LOSS_STEPS + 1) * 1024 <= MEMORY_BUDGET_BYTES

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_cached_plans_give_the_bytes_of_a_fresh_cache(self, tmp_path, monkeypatch, fmt):
        builds, damping_table = [], open_system._damping_table

        def record(rho0):
            builds.append(rho0.dims)
            return damping_table(rho0)

        def run(*args) -> bytes:
            out = tmp_path / "loss.out"
            assert main(["loss", *args, *fmt, "--output", str(out)]) == 0
            return out.read_bytes()

        monkeypatch.setattr(open_system, "_damping_table", record)
        first_args, second_args = ("--t-max", "2", "--steps", "200"), ("--t-max", "3.3", "--steps", "777")
        cli._loss_plans.cache_clear()
        first = run(*first_args)
        assert builds == [(3, 3), (3, 3)]  # the first loss of a process plans both reference states
        builds.clear()
        second = run(*second_args)
        assert builds == []  # later ones reuse the plans
        for args, cached in ((first_args, first), (second_args, second)):
            cli._loss_plans.cache_clear()
            assert run(*args) == cached

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["--t-max", "--steps"]), st.data())
    def test_bad_values_exit_2_without_output(self, option, data):
        value = data.draw(bad_t_max if option == "--t-max" else bad_steps)
        other = ["--steps=1000"] if option == "--t-max" else ["--t-max=1"]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "loss.csv"
            code, err = main_in_process(["loss", f"{option}={value}", *other, "--output", str(out)])
            assert code == 2
            assert "error:" in err
            assert "Traceback" not in err
            assert not out.exists()

    @settings(max_examples=25, deadline=None)
    @given(valid_loss_args())
    def test_valid_values_give_finite_cells(self, args):
        t_max, steps = args
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "loss.csv"
            code, err = main_in_process(["loss", f"--t-max={t_max}", f"--steps={steps}", "--output", str(out)])
            assert code == 0, err
            rows = read_csv(out)
        assert len(rows) == int(steps) + 1
        assert all(math.isfinite(float(cell)) for row in rows for cell in row.values())


class TestVolumeCommand:
    def test_flags_maximal_rows(self, tmp_path):
        out = tmp_path / "volume.csv"
        cp = run_cli("volume", "--max-photons", "3", "--points", "512", "--output", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "volume,best_entropy_bits,best_phi,best_input,maximal"
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[0]["maximal"] == "true"
        assert abs(float(rows[0]["best_entropy_bits"]) - 1.0) < 1e-6
        assert rows[1]["maximal"] == "true"
        assert abs(float(rows[1]["best_entropy_bits"]) - math.log2(3.0)) < 1e-6
        # the three-photon row is exploratory: present, no asserted entropy
        assert rows[2]["maximal"] in ("true", "false")
        assert float(rows[2]["volume"]) == 2.0

    def test_guard_on_photon_count(self):
        assert run_cli("volume", "--max-photons", "7").returncode == 2

    def test_half_search_matches_a_search_over_every_input(self, tmp_path):
        # the command searches inputs k <= P/2 only; the full search here keeps the same tie rule
        out = tmp_path / "volume.csv"
        assert main(["volume", "--max-photons", "6", "--points", "512", "--output", str(out)]) == 0
        rows = []
        for photons in range(1, 7):
            best_phi, best_entropy, best_index = None, -1.0, 0
            for index in range(photons + 1):
                phi, entropy = holonomy.max_entropy_over_phase(photons, index, 512)
                if entropy > best_entropy + 1e-12:
                    best_phi, best_entropy, best_index = phi, entropy, index
            ceiling = math.log2(photons + 1)
            label = f"{photons - best_index},{best_index}"
            rows.append((ceiling, best_entropy, best_phi, label, best_entropy >= ceiling - 1e-6))
        volume, entropy, phi, label, maximal = zip(*rows)
        expected = "".join(_render_csv({"volume": np.array(volume), "best_entropy_bits": np.array(entropy),
                                        "best_phi": np.array(phi), "best_input": label, "maximal": maximal}))
        assert out.read_bytes() == expected.encode()


class TestDiabaticCommand:
    def test_columns_and_totals(self, tmp_path):
        out = tmp_path / "diab.csv"
        sched = small_schedule_file(tmp_path)
        cp = run_cli("diabatic", "--schedule", str(sched), "--scan-points", "3",
                     "--scan-to", "4.0", "--output", str(out))
        assert cp.returncode == 0, cp.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "omega_t,leakage,lz_error,u3_total"
        rows = read_csv(out)
        assert len(rows) == 3
        assert abs(float(rows[0]["lz_error"]) - 0.04) < 1e-9
        for row in rows:
            assert float(row["u3_total"]) == pytest.approx(2.0 * float(row["lz_error"]), rel=1e-9)
            expected = math.exp(-math.sqrt(2.0) * float(row["omega_t"]))
            assert float(row["lz_error"]) == pytest.approx(expected, rel=1e-9)

    def test_zero_coupling_schedule_exits_5(self, tmp_path):
        data = default_schedule().to_dict()
        for name in ("east", "west", "aux"):
            data[name]["peak"] = 0.0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        cp = run_cli("diabatic", "--schedule", str(path))
        assert cp.returncode == 5
        assert "error" in cp.stderr

    @pytest.mark.parametrize("field, value", [("peak", math.nan), ("peak", math.inf), ("sigma", math.inf)])
    def test_non_finite_schedule_value_exits_5(self, tmp_path, field, value):
        data = default_schedule().to_dict()
        data["east"][field] = value
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(data))  # written as the JSON literals NaN / Infinity
        cp = run_cli("diabatic", "--schedule", str(path))
        assert cp.returncode == 5
        assert f"{field} must be finite" in cp.stderr

    @pytest.mark.parametrize(
        "steps, message", [(10**12, "steps must be in"), (math.inf, "malformed schedule")]
    )
    def test_schedule_steps_over_bound_exits_5(self, tmp_path, steps, message):
        data = default_schedule().to_dict()
        data["steps"] = steps
        path = tmp_path / "many_steps.json"
        path.write_text(json.dumps(data))
        cp = run_cli("diabatic", "--schedule", str(path))
        assert cp.returncode == 5
        assert message in cp.stderr

    @pytest.mark.parametrize("steps", [36000.5, "36000"])
    def test_non_integral_schedule_steps_exits_5(self, tmp_path, capsys, steps):
        data = default_schedule().to_dict()
        data["steps"] = steps
        path = tmp_path / "fractional_steps.json"
        path.write_text(json.dumps(data))
        assert main(["diabatic", "--schedule", str(path), "--output", str(tmp_path / "out.csv")]) == 5
        assert "steps must be an integer" in capsys.readouterr().err

    def test_boundary_violation_exits_5(self, tmp_path):
        data = default_schedule().to_dict()
        data["aux"]["sigma"] = 40.0
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        assert run_cli("diabatic", "--schedule", str(path)).returncode == 5

    def test_unresolved_narrow_pulses_exit_4(self, tmp_path, capsys):
        data = default_schedule().to_dict()
        for name in ("east", "west", "aux"):
            data[name].update(center=0.0, sigma=0.05)
        data["steps"] = 64
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(data))
        assert main(["diabatic", "--schedule", str(path), "--output", str(tmp_path / "out.csv")]) == 4
        # the first scan point dilates sigma and span alike, so N0 = 34 / (0.05/4) = 2720 holds
        assert "step cap 64 admits fewer than three doubling levels from 2720 steps" in capsys.readouterr().err

    def test_unresolvable_span_prints_only_the_error(self, tmp_path):
        # far facets overflow the Gaussian's argument, which underflows the coupling to 0 without a warning
        data = default_schedule().to_dict()
        # the span, 1.5e308, is finite; 4 span / sigma is not
        data["z_span"] = [-1e308, 5e307]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        cp = run_cli("diabatic", "--schedule", str(path), "--output", str(out))
        assert cp.returncode == 4
        assert cp.stderr.splitlines() == [
            "error: step cap 36000 admits fewer than three doubling levels from the first step count within a "
            f"quarter of the narrowest pulse width; the pulses cannot be resolved within MAX_STEPS = {MAX_STEPS}"
        ]
        assert not out.exists()

    def test_span_of_overflowing_length_exits_5(self, tmp_path):
        # both ends are finite, but z_end - z_start is not: the schedule is refused, nothing propagates
        data = default_schedule().to_dict()
        data["z_span"] = [-1e308, 1.7e308]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        cp = run_cli("diabatic", "--schedule", str(path), "--output", str(out))
        assert cp.returncode == 5
        assert cp.stderr.splitlines() == ["error: z_span length must be finite, got inf"]
        assert not out.exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not_utf8"])
    def test_unreadable_schedule_exits_5(self, tmp_path, capsys, case):
        path = unreadable_schedule(tmp_path, case)
        out = tmp_path / "out.csv"
        assert main(["diabatic", "--schedule", str(path), "--output", str(out)]) == 5
        err = capsys.readouterr().err
        assert f"cannot read schedule file {path}" in err
        assert "Traceback" not in err
        assert not out.exists()
        cp = run_cli("diabatic", "--schedule", str(path), "--output", str(out))
        assert cp.returncode == 5
        assert f"cannot read schedule file {path}" in cp.stderr
        assert "Traceback" not in cp.stderr
        assert not out.exists()

    def test_bad_scan_range_exits_2(self, tmp_path):
        sched = small_schedule_file(tmp_path)
        cp = run_cli("diabatic", "--schedule", str(sched), "--scan-from", "5", "--scan-to", "2")
        assert cp.returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("basis", "--photons", "4"),
            ("sweep", "--input", "1,1", "--points", "128"),
            ("sweep", "--input", "1,1", "--points", "64", "--json"),
            ("loss", "--t-max", "1", "--steps", "100"),
            ("volume", "--max-photons", "2", "--points", "256"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, tmp_path, args):
        out_a = tmp_path / "a.out"
        out_b = tmp_path / "b.out"
        assert run_cli(*args, "--output", str(out_a)).returncode == 0
        assert run_cli(*args, "--output", str(out_b)).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_diabatic_runs_are_byte_identical(self, tmp_path):
        sched = small_schedule_file(tmp_path, steps=3000)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ("diabatic", "--schedule", str(sched), "--scan-points", "2", "--scan-to", "3.0")
        assert run_cli(*args, "--output", str(out_a)).returncode == 0
        assert run_cli(*args, "--output", str(out_b)).returncode == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCliBasics:
    @pytest.mark.parametrize(
        "error, code",
        [(cli.CliError, cli.EXIT_UNWRITABLE), (cli.adiabatic.ScheduleError, cli.EXIT_SCHEDULE),
         (open_system.IntegrationError, cli.EXIT_INTEGRATOR), (ValueError, cli.EXIT_INVALID_INPUT)],
    )
    def test_each_error_class_exits_with_its_code(self, monkeypatch, capsys, error, code):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_basis", fail)
        monkeypatch.setattr(cli, "_parser", functools.lru_cache(maxsize=1)(cli.build_parser))
        assert main(["basis"]) == code
        assert capsys.readouterr().err == "error: boom\n"
        monkeypatch.setattr(cli, "cmd_basis", lambda args: 1 / 0)
        cli._parser.cache_clear()
        with pytest.raises(ZeroDivisionError):  # a class outside _EXIT_CODES is a bug, not an exit code
            main(["basis"])

    def test_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        for sub in ("basis", "sweep", "loss", "volume", "diabatic"):
            assert sub in cp.stdout

    def test_commands_import_neither_scipy_nor_numpy_ma(self, tmp_path):
        # a fresh interpreter runs every subcommand in both formats on a tiny input; scipy may be
        # installed but is no dependency, and numpy.ma (through np.unique, say) costs 12 ms of import
        script = (
            "import sys\n"
            "from holoent.cli import main\n"
            "for argv in (['basis', '--photons', '1'], ['sweep', '--input', '1,0', '--photons', '1', '--points', '8'],\n"
            "             ['loss', '--t-max', '0.1', '--steps', '10'], ['volume', '--max-photons', '1', '--points', '8'],\n"
            "             ['diabatic', '--scan-points', '2']):\n"
            "    for fmt in ([], ['--json']):\n"
            "        assert main(argv + fmt + ['--output', sys.argv[1]]) == 0, argv\n"
            "print(sorted(name for name in sys.modules\n"
            "             if name.split('.')[0] == 'scipy' or name.split('.')[:2] == ['numpy', 'ma']))\n"
        )
        cp = subprocess.run([sys.executable, "-c", script, str(tmp_path / "out")], capture_output=True, text=True)
        assert cp.returncode == 0, cp.stderr
        assert cp.stdout == "[]\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the bound of --points at the default --max-photons 4: (points + 5) * 5 <= MAX_SWEEP_ENTRIES
            (["volume", "--points=0"], f"--points must be in [8, {MAX_SWEEP_ENTRIES // 5 - 5}], got 0"),
            (["loss", "--steps=0"], f"--steps must be in [1, {MAX_LOSS_STEPS}], got 0"),
            # checked before the schedule is read: the path does not exist
            (["diabatic", "--schedule=missing.json", "--scan-points=1"],
             f"--scan-points must be in [2, {cli.MAX_SCAN_POINTS}], got 1"),
        ],
    )
    def test_integer_option_is_checked_first_and_named(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_console_output_defaults_to_stdout(self):
        cp = run_cli("sweep", "--input", "1,0", "--photons", "1", "--points", "8")
        assert cp.returncode == 0
        assert cp.stdout.startswith("phi,entropy_bits")

    def test_one_parser_serves_every_call_without_leaking_options(self, tmp_path, capsys):
        argv = ["sweep", "--input", "1,0", "--photons", "1", "--points", "8"]
        assert main(argv + ["--json", "--output", str(tmp_path / "a.json")]) == 0
        assert main(argv + ["--output", str(tmp_path / "b.csv")]) == 0
        assert main(argv) == 0
        assert (tmp_path / "a.json").read_text().startswith("[\n  {")
        assert (tmp_path / "b.csv").read_text().startswith("phi,entropy_bits")
        assert capsys.readouterr().out.startswith("phi,entropy_bits")
        assert cli._parser.cache_info().misses == 1
