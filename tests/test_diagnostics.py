import json
import subprocess
import sys
from pathlib import Path

import pytest

from holoent import diagnostics
from holoent.diagnostics import StageTimer

ROOT = Path(__file__).resolve().parents[1]


def fake_clock(monkeypatch, ticks):
    ticks = iter(ticks)
    monkeypatch.setattr(diagnostics, "perf_counter", lambda: next(ticks))


def test_summary_gives_count_min_and_median_per_stage(monkeypatch):
    fake_clock(monkeypatch, [0.0, 3.0, 10.0, 11.0, 20.0, 22.0, 30.0, 30.5])
    timer = StageTimer()
    for name in ("lift", "lift", "lift", "fit"):
        with timer.stage(name):
            pass
    assert timer.samples == {"lift": [3.0, 1.0, 2.0], "fit": [0.5]}
    assert timer.summary() == {
        "lift": {"n": 3, "min_s": 1.0, "median_s": 2.0},
        "fit": {"n": 1, "min_s": 0.5, "median_s": 0.5},
    }


def test_a_failing_stage_is_timed_and_its_error_passes_through(monkeypatch):
    fake_clock(monkeypatch, [1.0, 1.25])
    timer = StageTimer()
    with pytest.raises(ZeroDivisionError):
        with timer.stage("divide"):
            1 / 0
    assert timer.samples == {"divide": [0.25]}


def test_the_package_and_cli_do_not_import_it():
    code = "import sys, holoent, holoent.cli; print('holoent.diagnostics' in sys.modules)"
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert cp.stdout.strip() == "False"


def test_bench_writes_every_row_and_the_machine(tmp_path):
    out = tmp_path / "BENCH.json"
    argv = ["--output", str(out), "--repeats", "1", "--seconds", "0"]
    cp = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench.py"), *argv], capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr
    record = json.loads(out.read_text())
    for key in ("git_sha", "numpy", "nproc", "PYTHONDONTWRITEBYTECODE"):
        assert key in record
    names = [row["name"] for row in record["rows"]]
    assert "propagate_single_photon default, cold" in names and "evolve, 10000 samples" in names
    assert {row["layer"] for row in record["rows"]} == {"L0", "L1"}  # --seconds 0 skips L2
    for row in record["rows"]:
        assert row["n"] == 1 and 0.0 < row["min_s"] <= row["median_s"]
