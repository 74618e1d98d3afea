"""Reference checks of a run's outputs, computed without `holoent`.

Usage: python3 checks.py RUN_DIR reads RUN_DIR/jobs.json and the child's
RUN_DIR/result.json and writes RUN_DIR/checks.json, one entry per job. It runs
in its own process so that the benchmark's parent never loads numpy.

Each check yields (name, error, tolerance). A check passes when
error <= tolerance; a tolerance of 0 marks an exact check, whose error is 0
on a match and infinity otherwise. NaN errors fail. Tolerances live in
tolerances.json beside this file; none is looser than the repository tests'
tolerance for the same quantity.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

import references as ref

TOLERANCES = json.loads((Path(__file__).parent / "tolerances.json").read_text(encoding="utf-8"))

# fine phase grid for the volume check, and Magnus steps for the propagation reference
VOLUME_FINE_GRID = 20000
REFERENCE_STEPS = 8000
# the CLI's documented "maximal" criterion
MAXIMAL_MARGIN = 1e-6


def fmt(value: float) -> str:
    """The CLI's number format (12 significant digits)."""
    return format(float(value), ".12g")


def passed(error: float, tolerance: float) -> bool:
    return error <= tolerance  # False for NaN


def margin(error: float, tolerance: float) -> float:
    """error / tolerance; exact checks give 0 on a match and inf otherwise."""
    if tolerance > 0:
        return error / tolerance
    return 0.0 if error == 0 else math.inf


def _exact(name: str, ok: bool) -> tuple[str, float, float]:
    return (name, 0.0 if ok else math.inf, 0.0)


def _max_error(name: str, got, want) -> tuple[str, float, float]:
    error = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    return (name, error, TOLERANCES[name])


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _column(rows: list[dict], name: str) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


class References:
    """Propagation references shared by the jobs of one run, keyed by schedule."""

    def __init__(self):
        self._transfers: dict[str, np.ndarray] = {}

    def transfer(self, schedule: dict) -> np.ndarray:
        key = json.dumps(schedule, sort_keys=True)
        if key not in self._transfers:
            self._transfers[key] = ref.transfer_matrix(schedule, REFERENCE_STEPS)
        return self._transfers[key]


def check_sweep(spec: dict, rows: list[dict]) -> list:
    photons, label = spec["photons"], spec["label"]
    phis = ref.sweep_phases(spec["points"])
    out = [_exact("sweep.rows", len(rows) == len(phis))]
    if len(rows) != len(phis):
        return out
    out.append(_exact("sweep.phi", [r["phi"] for r in rows] == [fmt(p) for p in phis]))
    out.append(_exact("sweep.input_label", all(r["input_label"] == label for r in rows)))
    n_west = int(label.split(",")[1])
    p = ref.dark_populations(np.array(phis), photons, n_west)
    purity = ref.purity(p)
    out.append(_max_error("sweep.entropy_bits", _column(rows, "entropy_bits"), ref.entropy_bits(p)))
    out.append(_max_error("sweep.purity", _column(rows, "purity"), purity))
    out.append(_max_error("sweep.renyi2_bits", _column(rows, "renyi2_bits"), -np.log2(purity)))
    return out


def check_volume(spec: dict, rows: list[dict]) -> list:
    max_photons = spec["max_photons"]
    out = [_exact("volume.rows", len(rows) == max_photons)]
    if len(rows) != max_photons:
        return out
    grid = np.arange(VOLUME_FINE_GRID) * (math.pi / VOLUME_FINE_GRID)
    at_best, shortfall, exact = [], [], True
    for photons, row in zip(range(1, max_photons + 1), rows):
        ceiling = math.log2(photons + 1)
        best = float(row["best_entropy_bits"])
        labels = [f"{photons - k},{k}" for k in range(photons + 1)]
        if row["best_input"] not in labels:
            exact = False
            continue
        n_west = labels.index(row["best_input"])
        phi = float(row["best_phi"])
        at_best.append(abs(float(ref.entropy_bits(ref.dark_populations(phi, photons, n_west))) - best))
        fine_max = max(float(ref.entropy_bits(ref.dark_populations(grid, photons, k)).max())
                       for k in range(photons + 1))
        shortfall.append(max(0.0, fine_max - best))
        maximal = "true" if fine_max >= ceiling - MAXIMAL_MARGIN else "false"
        exact = exact and row["volume"] == fmt(ceiling) and row["maximal"] == maximal
    out.append(_exact("volume.columns", exact))
    if at_best:
        out.append(("volume.entropy_at_best_phi", max(at_best), TOLERANCES["volume.entropy_at_best_phi"]))
        out.append(("volume.below_fine_grid_max", max(shortfall), TOLERANCES["volume.below_fine_grid_max"]))
    return out


def holonomic_amplitudes() -> np.ndarray:
    """u3(phi_me)|1,1> on the 3x3 two-mode occupation space (flat n_E * 3 + n_W)."""
    phi_me = 0.5 * math.atan(math.sqrt(2.0))
    dark = ref.two_mode_lift(ref.rotation(phi_me), 2)[:, 1]
    psi = np.zeros(9, dtype=complex)
    for n_west, amp in enumerate(dark):
        psi[(2 - n_west) * 3 + n_west] = amp
    return psi


def bell_amplitudes() -> np.ndarray:
    psi = np.zeros(9, dtype=complex)
    psi[[0, 4, 8]] = 1.0 / math.sqrt(3.0)
    return psi


def check_loss(spec: dict, rows: list[dict]) -> list:
    steps = spec["steps"]
    out = [_exact("loss.rows", len(rows) == steps + 1)]
    if len(rows) != steps + 1:
        return out
    dt = spec["t_max"] / steps
    times = [k * dt for k in range(steps + 1)]
    out.append(_exact("loss.t_gamma", [r["t_gamma"] for r in rows] == [fmt(t) for t in times]))
    out.append(_exact("loss.exp_decay",
                      [r["exp_decay"] for r in rows] == [fmt(math.exp(-t)) for t in times]))
    t = np.array(times)
    holonomic = ref.lossy_negativity(holonomic_amplitudes(), t)
    bell = ref.lossy_negativity(bell_amplitudes(), t)
    got = np.concatenate([_column(rows, "negativity_holonomic"), _column(rows, "negativity_bell")])
    out.append(_max_error("loss.negativity", got, np.concatenate([holonomic, bell])))
    return out


def check_diabatic(spec: dict, rows: list[dict], refs: References) -> list:
    n = spec["scan_points"]
    out = [_exact("diabatic.rows", len(rows) == n)]
    if len(rows) != n:
        return out
    schedule = spec["schedule"]
    omegas = [float(w) for w in np.linspace(spec["scan_from"], spec["scan_to"], n)]
    lz = [math.exp(-math.sqrt(2.0) * w) for w in omegas]
    out.append(_exact("diabatic.omega_t", [r["omega_t"] for r in rows] == [fmt(w) for w in omegas]))
    out.append(_exact("diabatic.lz_error", [r["lz_error"] for r in rows] == [fmt(e) for e in lz]))
    out.append(_exact("diabatic.u3_total", [r["u3_total"] for r in rows] == [fmt(2.0 * e) for e in lz]))
    base = ref.working_area(schedule)
    leakage = [ref.east_leakage(refs.transfer(ref.dilate(schedule, w / base))) for w in omegas]
    out.append(_max_error("diabatic.leakage", _column(rows, "leakage"), leakage))
    return out


def check_holonomy(spec: dict, result: dict, refs: References) -> list:
    photons = spec["photons"]
    facet = ref.facet_block(refs.transfer(spec["schedule"]))
    want = ref.two_mode_lift(facet, photons)
    block = np.array(result["block_re"]) + 1j * np.array(result["block_im"])
    if block.shape != want.shape:
        return [_exact("holonomy.block_shape", False)]
    want_leakage = max(0.0, 1.0 - float(np.linalg.svd(want, compute_uv=False)[-1]) ** 2)
    return [
        ("holonomy.block", float(np.abs(block - want).max()), TOLERANCES["holonomy.block"]),
        ("holonomy.leakage", abs(result["leakage"] - want_leakage), TOLERANCES["holonomy.leakage"]),
        ("holonomy.phase", abs(result["phi"] - ref.block_angle(facet)), TOLERANCES["holonomy.phase"]),
    ]


def check_job(job: dict, outcome: dict, run_dir: Path, refs: References) -> list:
    """All checks of one job; a job that raised or exited unexpectedly fails its first check."""
    if outcome.get("error"):
        return [_exact("job.raised", False)]
    if job["kind"] == "holonomy":
        return check_holonomy(job["check"], outcome["result"], refs)
    output = run_dir / job["output"]
    exit_ok = outcome["code"] == job["expect"]
    if job["check"]["type"] == "invalid":
        return [_exact("invalid.exit_code", exit_ok), _exact("invalid.no_output", not output.exists())]
    if not exit_ok or not output.exists():
        return [_exact("job.exit_code", exit_ok), _exact("job.output_written", output.exists())]
    spec, rows = job["check"], read_rows(output)
    if spec["type"] == "sweep":
        return check_sweep(spec, rows)
    if spec["type"] == "volume":
        return check_volume(spec, rows)
    if spec["type"] == "loss":
        return check_loss(spec, rows)
    if spec["type"] == "diabatic":
        return check_diabatic(spec, rows, refs)
    raise ValueError(f"unknown check type {spec['type']!r}")


def check_run(jobs: list[dict], outcomes: list[dict], run_dir: Path) -> list[dict]:
    """One entry per job: passed flag, worst margin, failing checks and any error raised."""
    refs = References()
    report = []
    for job, outcome in zip(jobs, outcomes):
        error = outcome.get("error")
        try:
            results = check_job(job, outcome, run_dir, refs)
        except (KeyError, ValueError, IndexError, TypeError) as exc:  # malformed output
            results = [_exact("job.malformed_output", False)]
            error = error or repr(exc)
        failing = [(n, e, t) for n, e, t in results if not passed(e, t)]
        report.append({
            "job": " ".join(job.get("argv") or [job["kind"], f"P={job.get('photons')}"]),
            "passed": not failing,
            "worst_margin": max(margin(e, t) for _, e, t in results),
            "failing": failing,
            "error": error,
        })
    return report


def main(argv: list[str]) -> int:
    run_dir = Path(argv[0])
    jobs = json.loads((run_dir / "jobs.json").read_text(encoding="utf-8"))["jobs"]
    outcomes = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))["outcomes"]
    report = check_run(jobs, outcomes, run_dir)
    (run_dir / "checks.json").write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
