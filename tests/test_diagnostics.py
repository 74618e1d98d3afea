import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from holoent import diagnostics
from holoent.diagnostics import StageTimer
from holoent.entanglement import _transpose_mode
from holoent.open_system import LossConfig, bell_qutrit_state, plan_loss
from loss_oracle import damped_states

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
    assert record["thread_env"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    assert len(record["src_sha256"]) == 64
    modules = sorted((ROOT / "src" / "holoent").glob("*.py"))
    counts = {path.name: len(path.read_text(encoding="utf-8").split("\n")) - 1 for path in modules}
    assert record["src_lines"] == {"files": counts, "total": sum(counts.values())}
    assert "holonomy.py" in counts and "cli.py" in counts
    names = [row["name"] for row in record["rows"]]
    assert "propagate_single_photon default, cold" in names and "evolve, 10000 samples" in names
    assert "evolve holonomic state, 1000 samples" in names and "fit_rotation_phase P=1" in names
    assert "evolve phase-rotated Bell qutrit, 1000 samples" in names and "evolve from a plan, 1000 samples" in names
    assert "trace_norm, 256 Bell-qutrit 3x3 blocks" in names
    assert {"fock_lift P=1", "fock_lift P=6", "multimode_lift P=6", "multimode_lift P=42"} <= set(names)
    assert "single_mode_rotation, 256 phases" in names and "cli sweep --input 3,3 --photons 6 --points 1024" in names
    assert "fit_rotation_phase P=6" in names and "cli volume --max-photons 4 --points 512" in names
    assert {"cli loss", "cli sweep --input 1,1", "cli volume", "cli diabatic, cold"} <= set(names)
    assert {"cli basis --photons 1023", "generate_datasets.py, cold"} <= set(names)
    assert {row["layer"] for row in record["rows"]} == {"L0", "L1", "L2"}
    assert not any(name.startswith("perfbench") for name in names)  # --seconds 0 skips perfbench
    for row in record["rows"]:
        assert row["n"] == 1 and 0.0 < row["min_s"] <= row["median_s"]
        # drift-corrected as perfbench corrects: KERNEL_REF_S over the mean kernel time beside the row
        before, after = row["calibration_s"]
        factor = record["kernel_ref_s"] / (0.5 * (before + after))
        assert row["corrected_min_s"] == pytest.approx(row["min_s"] * factor, rel=1e-12)
        assert row["corrected_median_s"] == pytest.approx(row["median_s"] * factor, rel=1e-12)
    # each row's kernel before it is the one timed after the row before
    assert all(a["calibration_s"][1] == b["calibration_s"][0] for a, b in zip(record["rows"], record["rows"][1:]))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_trace_norm_blocks_are_the_bell_qutrits_first_samples():
    bench, rho0 = load_bench(), bell_qutrit_state()
    index = plan_loss(rho0).groups[-1][0]
    assert index.shape == (1, 3)
    cfg = LossConfig()
    gamma_t = np.arange(bench.TRACE_NORM_BLOCKS) * (cfg.t_max / cfg.steps)
    transposed = _transpose_mode(damped_states(rho0, gamma_t), rho0.dims, "east")
    blocks = bench.first_blocks(rho0)
    assert blocks.shape == (bench.TRACE_NORM_BLOCKS, 1, 3, 3)
    assert np.array_equal(blocks, transposed[:, index[:, :, None], index[:, None, :]])


def test_bench_tree_digest_names_the_files_and_skips_bytecode(tmp_path):
    bench = load_bench()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    digest = bench.tree_sha256(tmp_path)
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.pyc").write_bytes(b"\0")
    assert bench.tree_sha256(tmp_path) == digest
    (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
    assert bench.tree_sha256(tmp_path) != digest
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "a.py").rename(tmp_path / "pkg" / "b.py")
    assert bench.tree_sha256(tmp_path) != digest
