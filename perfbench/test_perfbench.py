"""Tests of the benchmark itself: job lists, reference checks, tracer and wrappers."""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import pytest

import checks
import child
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
DEFAULT = workloads.load_default_schedule(ROOT)


# --- job lists ------------------------------------------------------------------


def sizes(plan: dict) -> list[tuple]:
    """Everything about a job list that sets the amount of work, values stripped."""
    out = []
    for job in plan["jobs"]:
        spec = job["check"]
        schedule = spec.get("schedule", {})
        out.append((job["kind"], job.get("expect"), spec["type"], spec.get("photons"),
                    spec.get("points"), spec.get("steps"), spec.get("scan_points"),
                    spec.get("max_photons"), schedule.get("steps")))
    return out


def inputs(plan: dict) -> list[str]:
    return [json.dumps([job.get("argv"), job.get("photons"), job.get("schedule")]) for job in plan["jobs"]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_job_list(workload):
    assert workloads.job_list(workload, 7, DEFAULT) == workloads.job_list(workload, 7, DEFAULT)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_changes_values_not_sizes(workload):
    first = workloads.job_list(workload, 7, DEFAULT)
    for seed in (8, 9, 10):
        other = workloads.job_list(workload, seed, DEFAULT)
        assert other != first
        assert sizes(other) == sizes(first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_jobs_share_inputs(workload):
    for seed in range(20):
        names = inputs(workloads.job_list(workload, seed, DEFAULT))
        assert len(set(names)) == len(names)


def test_schedules_inherit_default_steps_and_invalid_ones_break_facet_decay():
    for seed in range(20):
        files = workloads.job_list("schedule-scan", seed, DEFAULT)["files"]
        assert files["schedule.json"]["steps"] == DEFAULT["steps"]
        for name, broken in (("schedule.json", False), ("undecayed.json", True)):
            schedule = files[name]
            edge = max(
                math.exp(-0.5 * ((z - p["center"]) / p["sigma"]) ** 2)
                for p in (schedule[k] for k in ("east", "west", "aux"))
                for z in schedule["z_span"]
            )
            assert (edge > 1e-6) is broken


# --- reference checks -----------------------------------------------------------


def run_cli(tmp_path: Path, argv: list[str], output: str) -> dict:
    import holoent.cli

    code = holoent.cli.main(argv + ["--output", str(tmp_path / output)])
    return {"code": code, "error": None, "result": None}


def failing(job: dict, outcome: dict, run_dir: Path) -> list[str]:
    results = checks.check_job(job, outcome, run_dir, checks.References())
    return [name for name, error, tol in results if not checks.passed(error, tol)]


def nudge(path: Path, column: str, delta: float, row: int = 1) -> None:
    """Add `delta` to one CSV cell, keeping the CLI's number format."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row][col] = checks.fmt(float(rows[row][col]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows(rows)


def cli_job(argv: list[str], output: str, check: dict, expect: int = 0) -> dict:
    return {"kind": "cli", "argv": argv, "output": output, "expect": expect, "check": check}


def test_sweep_check_catches_entropy_off_by_1e_6(tmp_path):
    argv = ["sweep", "--input", "1,2", "--photons", "3", "--points", "64"]
    job = cli_job(argv, "s.csv", {"type": "sweep", "photons": 3, "label": "1,2", "points": 64})
    outcome = run_cli(tmp_path, argv, "s.csv")
    assert failing(job, outcome, tmp_path) == []
    nudge(tmp_path / "s.csv", "entropy_bits", 1e-6, row=20)
    assert failing(job, outcome, tmp_path) == ["sweep.entropy_bits"]


def test_volume_check_catches_a_missed_maximum(tmp_path):
    argv = ["volume", "--max-photons", "2", "--points", "64"]
    job = cli_job(argv, "v.csv", {"type": "volume", "max_photons": 2, "points": 64})
    outcome = run_cli(tmp_path, argv, "v.csv")
    assert failing(job, outcome, tmp_path) == []
    nudge(tmp_path / "v.csv", "best_entropy_bits", -1e-6, row=2)
    assert set(failing(job, outcome, tmp_path)) == {
        "volume.entropy_at_best_phi", "volume.below_fine_grid_max"}


def test_loss_check_catches_negativity_and_exact_columns(tmp_path):
    argv = ["loss", "--t-max", "1.7", "--steps", "170"]
    job = cli_job(argv, "l.csv", {"type": "loss", "t_max": 1.7, "steps": 170})
    outcome = run_cli(tmp_path, argv, "l.csv")
    assert failing(job, outcome, tmp_path) == []
    nudge(tmp_path / "l.csv", "negativity_bell", 1e-5, row=50)
    nudge(tmp_path / "l.csv", "exp_decay", 1e-12, row=60)
    assert failing(job, outcome, tmp_path) == ["loss.exp_decay", "loss.negativity"]


def test_diabatic_check_catches_leakage_off_by_1e_7(tmp_path):
    (tmp_path / "sched.json").write_text(json.dumps(DEFAULT))
    argv = ["diabatic", "--schedule", str(tmp_path / "sched.json"), "--scan-from", "2.5",
            "--scan-to", "4.0", "--scan-points", "2"]
    job = cli_job(argv, "d.csv", {"type": "diabatic", "schedule": DEFAULT, "scan_from": 2.5,
                                   "scan_to": 4.0, "scan_points": 2})
    outcome = run_cli(tmp_path, argv, "d.csv")
    assert failing(job, outcome, tmp_path) == []
    nudge(tmp_path / "d.csv", "leakage", 1e-7, row=2)
    assert failing(job, outcome, tmp_path) == ["diabatic.leakage"]
    nudge(tmp_path / "d.csv", "u3_total", 1e-12, row=1)
    assert failing(job, outcome, tmp_path) == ["diabatic.u3_total", "diabatic.leakage"]


def test_holonomy_check_catches_phase_and_leakage(tmp_path):
    import holoent

    (tmp_path / "sched.json").write_text(json.dumps(DEFAULT))
    job = {"kind": "holonomy", "schedule": str(tmp_path / "sched.json"), "photons": 2,
           "check": {"type": "holonomy", "schedule": DEFAULT, "photons": 2}}
    outcome = child.run_job(holoent, job)
    assert outcome["error"] is None
    assert failing(job, outcome, tmp_path) == []
    result = outcome["result"]
    assert failing(job, dict(outcome, result=dict(result, phi=result["phi"] + 1e-5)), tmp_path) == [
        "holonomy.phase"]
    assert failing(job, dict(outcome, result=dict(result, leakage=result["leakage"] + 1e-7)),
                   tmp_path) == ["holonomy.leakage"]


def test_invalid_job_needs_documented_code_and_no_output(tmp_path):
    argv = ["sweep", "--input", "2,1", "--photons", "2", "--output", str(tmp_path / "bad.csv")]
    job = cli_job(argv, "bad.csv", {"type": "invalid"}, expect=2)
    import holoent

    outcome = child.run_job(holoent, job)
    assert outcome["code"] == 2
    assert failing(job, outcome, tmp_path) == []
    assert failing(dict(job, expect=5), outcome, tmp_path) == ["invalid.exit_code"]
    (tmp_path / "bad.csv").write_text("")
    assert failing(job, outcome, tmp_path) == ["invalid.no_output"]


# --- tracer -------------------------------------------------------------------------


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer(clock=ScriptedClock([0.0, 1.0, 2.0, 3.5, 4.0, 10.0]))
    tracer.enter("holonomy.max_entropy_over_phase")   # 0 .. 10
    tracer.enter("holonomy.entropy_at_phase")         # 1 .. 4
    tracer.enter("holonomy.fock_lift")                # 2 .. 3.5
    tracer.exit()
    tracer.exit()
    tracer.exit()
    m = tracer.metrics()
    assert m["holonomy.fock_lift.self_s"] == pytest.approx(1.5)
    assert m["holonomy.entropy_at_phase.self_s"] == pytest.approx(1.5)
    assert m["holonomy.max_entropy_over_phase.self_s"] == pytest.approx(7.0)
    assert m["holonomy.self_s"] == pytest.approx(10.0)
    assert m["holonomy.max_entropy_over_phase.evals"] == 1.0
    assert m["adiabatic.fit_rotation_phase.lifts"] == 0.0


def test_wrappers_count_calls_steps_and_nested_lifts():
    tracer = tracing.Tracer()

    def lift(u, photons):
        return photons

    def fit(block, photons):
        return sum(wrapped_lift(None, photons) for _ in range(4))

    class Schedule:
        steps = 250

    wrapped_lift = tracer.wrap("holonomy.multimode_lift", lift)
    wrapped_fit = tracer.wrap("adiabatic.fit_rotation_phase", fit)
    wrapped_prop = tracer.wrap("adiabatic.propagate_single_photon", lambda schedule: None)
    assert wrapped_fit(None, 2) == 8
    wrapped_fit(None, 1)
    wrapped_prop(Schedule())
    wrapped_prop(schedule=Schedule())
    m = tracer.metrics()
    assert m["holonomy.multimode_lift.calls"] == 8.0
    assert m["adiabatic.fit_rotation_phase.lifts"] == 4.0
    assert m["adiabatic.propagate_single_photon.steps"] == 500.0


def holoent_bindings() -> dict:
    return {(name, attr): value for name, module in list(sys.modules.items())
            if name == "holoent" or name.startswith("holoent.")
            for attr, value in vars(module).items() if callable(value)}


def test_wrappers_cover_cross_module_bindings_and_are_restored(tmp_path):
    import holoent
    import holoent.cli

    before = holoent_bindings()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert holoent.adiabatic.multimode_lift is holoent.holonomy.multimode_lift
        assert holoent.adiabatic.multimode_lift.__wrapped__ is before[("holoent.holonomy", "multimode_lift")]
        assert holoent.open_system.partial_transpose is holoent.entanglement.partial_transpose
        assert holoent.partial_transpose is holoent.entanglement.partial_transpose
        assert hasattr(holoent.open_system.partial_transpose, "__wrapped__")
    after = holoent_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    job = cli_job(["sweep", "--input", "1,1", "--photons", "2", "--points", "16",
                   "--output", str(tmp_path / "s.csv")], "s.csv", {"type": "invalid"})
    child.run_jobs(holoent, [job], tracer)
    m = tracer.metrics()
    assert m["cli.main.calls"] == 1.0
    assert m["fock.dark_basis.calls"] > 0  # called through cli's `from .fock import` binding
    assert m["holonomy.fock_lift.calls"] == 17.0  # 16 grid points plus the off-grid marker phase
    after = holoent_bindings()
    assert all(after[key] is before[key] for key in before)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
