#!/usr/bin/env python3
"""Write one BENCH file: the L0/L1/L2 rows of ROADMAP aim 1 and the end-to-end benchmark.

Usage (from anywhere; holoent is imported from this checkout's src):
  python scripts/bench.py --output BENCH_<pr>.json [--repeats 30] [--seconds 10]

L0 and L1 rows, and the L2 rows of single CLI commands, run in this process through
holoent.diagnostics.StageTimer: each row is called --repeats times after one untimed
call, and the file keeps the min and the median. A CLI row calls holoent.cli.main and
writes its dataset into a temporary directory. A "cold" row clears the transfer cache
before every call. The perfbench L2 rows run perfbench/run.py once per workload (seed
L2_SEED, --seconds each, tracing off) and copy its drift-corrected medians; --seconds 0
skips them. The file also
records the git SHA, whether the tree differs from it, a SHA-256 of src/ that names
the measured tree even when it does, the numpy and Python versions, nproc and whether
PYTHONDONTWRITEBYTECODE is set, which makes setup_s include compiling holoent. Run as a
script, it first sets perfbench's THREAD_ENV (one BLAS thread, as in perfbench's children)
and records the thread settings in effect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import THREAD_ENV  # noqa: E402  (perfbench/run.py, which never imports numpy)

if __name__ == "__main__":  # before numpy loads its BLAS; an importing process keeps its own
    os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

from holoent import adiabatic, cli, holonomy, open_system  # noqa: E402
from holoent.diagnostics import StageTimer  # noqa: E402
from holoent.entanglement import DensityMatrix, density_from_pure, trace_norm  # noqa: E402
from holoent.fock import basis_state  # noqa: E402
from holoent.open_system import LossConfig, bell_qutrit_state, evolve  # noqa: E402

L2_SEED = 1
L2_METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def cold(fn):
    def call():
        adiabatic.propagate_single_photon.cache_clear()
        return fn()
    return call


def command(argv: list[str], output: Path):
    def call():
        code = cli.main([*argv, "--output", str(output)])
        if code != 0:
            raise RuntimeError(f"holoent {' '.join(argv)} exited {code}")
    return call


def first_chunk_blocks(rho0: DensityMatrix) -> np.ndarray:
    """The largest coherence blocks of rho0's first CHUNK_SAMPLES samples at the default loss
    spacing, shaped as `evolve` hands them to `trace_norm`."""
    flat, pair_photons, groups, _ = open_system._coherence_blocks(*open_system._damping_table(rho0), rho0.dims)
    index, entries = groups[-1]
    cfg = LossConfig()
    samples = open_system._sample(flat, pair_photons, np.arange(open_system.CHUNK_SAMPLES) * (cfg.t_max / cfg.steps))
    return samples[:, entries].reshape((len(samples),) + index.shape + index.shape[-1:])


def rows(outdir: Path) -> list[tuple[str, str, object]]:
    """(layer, name, call) of every timed row; CLI rows write into outdir."""
    schedule = adiabatic.default_schedule()
    rotation = holonomy.single_mode_rotation(0.3)
    modes = [adiabatic.MODE_EAST, adiabatic.MODE_WEST]  # the sub-unitary facet block dark_holonomy lifts
    facet = adiabatic.propagate_single_photon(schedule)[np.ix_(modes, modes)]
    block_phases = np.arange(cli.ROW_BLOCK) * (np.pi / cli.ROW_BLOCK)  # one block of the sweep's rotations
    bell = bell_qutrit_state()
    # the Bell qutrit after the local phase i^n on the east mode: same trajectory, complex table
    east_phase = np.kron(np.diag([1.0, 1.0j, -1.0]), np.eye(3))
    rotated_bell = DensityMatrix(east_phase @ bell.matrix @ east_phase.conj().T, bell.dims)
    bell_blocks = first_chunk_blocks(bell)  # (256, 1, 3, 3) float64
    holonomic = density_from_pure(
        holonomy.apply_holonomy(holonomy.u3(holonomy.phi_maximally_entangled()), basis_state(2, 1))
    )

    def propagate():
        return adiabatic.propagate_single_photon(schedule)

    out = [
        ("L0", "propagate_single_photon default, cold", cold(propagate)),
        ("L0", "propagate_single_photon default, cache hit", propagate),
    ]
    out += [  # the default schedule's ladder
        ("L0", f"_cf4_transfer default, {n} steps", lambda n=n: adiabatic._cf4_transfer(schedule, n))
        for n in (136, 272, 544, 1088, 2176)
    ]
    out += [
        ("L0", f"single_mode_rotation, {cli.ROW_BLOCK} phases", lambda: holonomy.single_mode_rotation(block_phases)),
        ("L0", "fock_lift P=1", lambda: holonomy.fock_lift(rotation, 1)),
        ("L0", "fock_lift P=6", lambda: holonomy.fock_lift(rotation, 6)),
        ("L0", "multimode_lift P=6", lambda: holonomy.multimode_lift(facet, 6)),
        ("L0", "multimode_lift P=42", lambda: holonomy.multimode_lift(facet, holonomy.MAX_LIFT_PHOTONS)),
        ("L0", "entropy_at_phase P=6", lambda: holonomy.entropy_at_phase(0.3, 6, 3)),
        ("L0", f"trace_norm, {open_system.CHUNK_SAMPLES} Bell-qutrit 3x3 blocks", lambda: trace_norm(bell_blocks)),
        ("L1", "max_entropy_over_phase(2, 1)", lambda: holonomy.max_entropy_over_phase(2, 1)),
        ("L1", "max_entropy_over_phase(6, 3)", lambda: holonomy.max_entropy_over_phase(6, 3)),
        ("L1", "fit_rotation_phase P=1", lambda: adiabatic.fit_rotation_phase(rotation, 1)),
        ("L1", "fit_rotation_phase P=2", lambda: adiabatic.fit_rotation_phase(holonomy.u3(0.3), 2)),
        ("L1", "fit_rotation_phase P=6", lambda: adiabatic.fit_rotation_phase(holonomy.fock_lift(rotation, 6), 6)),
        ("L1", "dark_holonomy P=2, cold", cold(lambda: adiabatic.dark_holonomy(schedule, 2))),
        ("L1", "dark_holonomy P=2, warm", lambda: adiabatic.dark_holonomy(schedule, 2)),
        ("L1", "evolve, 1000 samples", lambda: evolve(bell, LossConfig(t_max=10.0, steps=1000))),
        ("L1", "evolve, 10000 samples", lambda: evolve(bell, LossConfig(t_max=10.0, steps=10000))),
        ("L1", "evolve holonomic state, 1000 samples",
         lambda: evolve(holonomic, LossConfig(t_max=10.0, steps=1000))),
        ("L1", "evolve phase-rotated Bell qutrit, 1000 samples",
         lambda: evolve(rotated_bell, LossConfig(t_max=10.0, steps=1000))),
        ("L2", "cli loss", command(["loss"], outdir / "loss.csv")),
        ("L2", "cli sweep --input 1,1", command(["sweep", "--input", "1,1"], outdir / "sweep.csv")),
        ("L2", "cli sweep --input 3,3 --photons 6 --points 1024",  # the phase-sweep workload's P = 6 job
         command(["sweep", "--input", "3,3", "--photons", "6", "--points", "1024"], outdir / "sweep6.csv")),
        ("L2", "cli volume", command(["volume"], outdir / "volume.csv")),
        ("L2", "cli volume --max-photons 4 --points 512",  # the phase-sweep workload's volume job
         command(["volume", "--max-photons", "4", "--points", "512"], outdir / "volume512.csv")),
        ("L2", "cli diabatic, cold", cold(command(["diabatic"], outdir / "diabatic.csv"))),
    ]
    return out


def time_rows(repeats: int) -> list[dict]:
    timer, layers = StageTimer(), {}
    with tempfile.TemporaryDirectory() as outdir:
        for layer, name, call in rows(Path(outdir)):
            layers[name] = layer
            call()  # imports, tables and caches outside the timed calls
            for _ in range(repeats):
                with timer.stage(name):
                    call()
    return [{"layer": layers[name], "name": name, **stats} for name, stats in timer.summary().items()]


def end_to_end(seconds: float) -> list[dict]:
    out = []
    for workload in ("phase-sweep", "schedule-scan", "loss-decay"):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(L2_SEED),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        metrics = result.get("metrics", {})
        out.append({
            "layer": "L2", "name": f"perfbench {workload}", "seed": L2_SEED, "seconds": seconds,
            "exit_code": proc.returncode, "correct": result.get("correct"), "failed": result.get("failed"),
            **{name: metrics[name]["value"] for name in L2_METRICS if name in metrics},
        })
    return out


def tree_sha256(root: Path) -> str:
    """SHA-256 over the relative path, size and bytes of every file under root, bytecode caches excluded."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--output", type=Path, required=True, help="BENCH file to write")
    parser.add_argument("--repeats", type=int, default=30, help="timed calls per L0/L1 row")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="perfbench budget per workload; 0 skips L2")
    args = parser.parse_args(argv)
    if args.repeats < 1 or not args.seconds >= 0:
        parser.error("--repeats must be at least 1 and --seconds non-negative")
    status = git("status", "--porcelain", "--untracked-files=no")
    record = {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": tree_sha256(ROOT / "src"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "repeats": args.repeats,
        "rows": time_rows(args.repeats) + (end_to_end(args.seconds) if args.seconds > 0 else []),
    }
    args.output.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
