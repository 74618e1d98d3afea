import csv
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from holoent.adiabatic import default_schedule
from holoent.cli import main
from holoent.holonomy import DEFAULT_SWEEP_POINTS, MAX_SWEEP_ENTRIES


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "holoent", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_schedule_file(tmp_path: Path, steps: int = 6000) -> Path:
    data = default_schedule().to_dict()
    data["steps"] = steps
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps(data))
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

    def test_invalid_points_exits_2(self):
        assert run_cli("sweep", "--input", "1,1", "--points", "0").returncode == 2


def smallest_photons_above_bound(points: int) -> int:
    photons = 1
    while (points + photons + 1) * (photons + 1) <= MAX_SWEEP_ENTRIES:
        photons += 1
    return photons


class TestSweepSizeBound:
    """Sizes one past MAX_SWEEP_ENTRIES exit 2 before anything of that size is allocated."""

    @pytest.mark.parametrize(
        "args",
        [
            ["sweep", "--input", "1,0", "--photons", "1", "--points", str(MAX_SWEEP_ENTRIES // 2 - 1)],
            ["volume", "--max-photons", "4", "--points", str(MAX_SWEEP_ENTRIES // 5 - 4)],
            [
                "sweep",
                "--input",
                f"{smallest_photons_above_bound(DEFAULT_SWEEP_POINTS)},0",
                "--photons",
                str(smallest_photons_above_bound(DEFAULT_SWEEP_POINTS)),
            ],
        ],
        ids=["sweep-points", "volume-points", "sweep-photons"],
    )
    def test_exits_2_without_allocating(self, tmp_path, capsys, args):
        out = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code = main(args + ["--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceed the bound" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20


class TestLossCommand:
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
        assert "steps must be <=" in capsys.readouterr().err
        assert not out.exists()
        assert peak < 1 << 20


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

    def test_boundary_violation_exits_5(self, tmp_path):
        data = default_schedule().to_dict()
        data["aux"]["sigma"] = 40.0
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        assert run_cli("diabatic", "--schedule", str(path)).returncode == 5

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
    def test_help(self):
        cp = run_cli("--help")
        assert cp.returncode == 0
        for sub in ("basis", "sweep", "loss", "volume", "diabatic"):
            assert sub in cp.stdout

    def test_console_output_defaults_to_stdout(self):
        cp = run_cli("sweep", "--input", "1,0", "--photons", "1", "--points", "8")
        assert cp.returncode == 0
        assert cp.stdout.startswith("phi,entropy_bits")
