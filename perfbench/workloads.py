"""Seeded job lists for the benchmark workloads.

A job list depends only on (workload, seed) and the packaged default schedule;
every run of one benchmark invocation repeats it in a fresh interpreter. The
seed changes values, never sizes: job counts, photon numbers, grid points,
propagation steps and scan-point counts are fixed per workload, so every seed
asks the program for the same amount of work. No two jobs of one list have
identical inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SCHEDULE = Path("src/holoent/data/default_schedule.json")

# phase-sweep: sweeps over every photon number the CLI allows, plus one volume scan
SWEEP_PHOTONS = (1, 2, 3, 4, 5, 6)
SWEEP_POINTS = 1024
VOLUME_MAX_PHOTONS = 4
VOLUME_POINTS = 512

# schedule-scan: one perturbed schedule, scanned by the CLI and characterised in-library
HOLONOMY_PHOTONS = (1, 2, 6)
SCAN_POINTS = 2

# loss-decay: loss runs at the default step count, t_max kept inside the step-size guard
LOSS_JOBS = 6
LOSS_STEPS = 1000
LOSS_STEP_GUARD = 0.01

EXIT_INVALID_INPUT = 2
EXIT_SCHEDULE = 5


def _cli(argv: list[str], output: str, expect: int, check: dict) -> dict:
    return {"kind": "cli", "argv": argv + ["--output", output], "output": output,
            "expect": expect, "check": check}


def _phase_sweep(rng: random.Random, default: dict) -> dict:
    jobs = []
    for photons in SWEEP_PHOTONS:
        n_west = rng.randint(0, photons)
        label = f"{photons - n_west},{n_west}"
        jobs.append(_cli(
            ["sweep", "--input", label, "--photons", str(photons), "--points", str(SWEEP_POINTS)],
            f"sweep{photons}.csv", 0,
            {"type": "sweep", "photons": photons, "label": label, "points": SWEEP_POINTS}))
    jobs.append(_cli(
        ["volume", "--max-photons", str(VOLUME_MAX_PHOTONS), "--points", str(VOLUME_POINTS)],
        "volume.csv", 0, {"type": "volume", "max_photons": VOLUME_MAX_PHOTONS, "points": VOLUME_POINTS}))
    # a label whose photon count is one more than --photons
    photons = rng.randint(1, 6)
    n_east = rng.randint(0, photons + 1)
    jobs.append(_cli(
        ["sweep", "--input", f"{n_east},{photons + 1 - n_east}", "--photons", str(photons),
         "--points", str(SWEEP_POINTS)],
        "bad_label.csv", EXIT_INVALID_INPUT, {"type": "invalid"}))
    return {"files": {}, "jobs": jobs}


def _perturbed(rng: random.Random, default: dict, aux_sigma_scale=(0.95, 1.05)) -> dict:
    """Peaks within +-15%, centres shifted, sigmas within +-10% (aux +-5%).

    The aux bounds keep every coupling below 1e-6 of its peak at both facets of
    the packaged z_span; `steps` is inherited from the packaged default.
    """
    out = {}
    for name in ("east", "west", "aux"):
        p = default[name]
        shift = 0.2 if name == "aux" else 0.1
        sigma_scale = aux_sigma_scale if name == "aux" else (0.9, 1.1)
        out[name] = {
            "peak": p["peak"] * rng.uniform(0.85, 1.15),
            "center": p["center"] + rng.uniform(-shift, shift),
            "sigma": p["sigma"] * rng.uniform(*sigma_scale),
        }
    out["z_span"] = list(default["z_span"])
    out["steps"] = default["steps"]
    return out


def _schedule_scan(rng: random.Random, default: dict) -> dict:
    schedule = _perturbed(rng, default)
    scan_from = rng.uniform(2.0, 2.6)
    scan_to = rng.uniform(4.0, 5.0)
    jobs = [_cli(
        ["diabatic", "--schedule", "schedule.json", "--scan-from", repr(scan_from),
         "--scan-to", repr(scan_to), "--scan-points", str(SCAN_POINTS)],
        "diabatic.csv", 0,
        {"type": "diabatic", "schedule": schedule, "scan_from": scan_from, "scan_to": scan_to,
         "scan_points": SCAN_POINTS})]
    for photons in HOLONOMY_PHOTONS:
        jobs.append({
            "kind": "holonomy", "schedule": "schedule.json", "photons": photons,
            "check": {"type": "holonomy", "schedule": schedule, "photons": photons},
        })
    # aux pulse too wide to decay at the facets
    undecayed = _perturbed(rng, default, aux_sigma_scale=(1.3, 1.6))
    jobs.append(_cli(["diabatic", "--schedule", "undecayed.json", "--scan-points", str(SCAN_POINTS)],
                     "bad_schedule.csv", EXIT_SCHEDULE, {"type": "invalid"}))
    return {"files": {"schedule.json": schedule, "undecayed.json": undecayed}, "jobs": jobs}


def _loss_decay(rng: random.Random, default: dict) -> dict:
    limit = LOSS_STEPS * LOSS_STEP_GUARD
    jobs = []
    for k in range(LOSS_JOBS):
        t_max = rng.uniform(0.2 * limit, limit)
        jobs.append(_cli(["loss", "--t-max", repr(t_max), "--steps", str(LOSS_STEPS)], f"loss{k}.csv", 0,
                         {"type": "loss", "t_max": t_max, "steps": LOSS_STEPS}))
    # gamma*dt above the step-size guard
    t_max = rng.uniform(1.05 * limit, 2.0 * limit)
    jobs.append(_cli(["loss", "--t-max", repr(t_max), "--steps", str(LOSS_STEPS)], "bad_steps.csv",
                     EXIT_INVALID_INPUT, {"type": "invalid"}))
    return {"files": {}, "jobs": jobs}


_BUILDERS = {"phase-sweep": _phase_sweep, "schedule-scan": _schedule_scan, "loss-decay": _loss_decay}
WORKLOADS = tuple(_BUILDERS)


def job_list(workload: str, seed: int, default_schedule: dict) -> dict:
    """{"files": {name: json data}, "jobs": [...]} for one workload and seed."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), default_schedule)


def load_default_schedule(root: Path) -> dict:
    return json.loads((root / DEFAULT_SCHEDULE).read_text(encoding="utf-8"))
