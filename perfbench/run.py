#!/usr/bin/env python3
"""Benchmark of the holoent simulator: one workload, one seed, one time budget.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed fixes one job list (workloads.py). Each run is a fresh child
interpreter (child.py) that imports `holoent` from ./src and runs that list
in-process through `holoent.cli.main` and the library calls that
scripts/schedule_report.py makes. After each run a separate process checks
every output against closed-form references (checks.py), outside the timed
region. Runs start while the next one is expected to end inside the budget.

--trace 0 reports the end-to-end metrics, medians over the runs. On a shared
virtual machine whole stretches of runs slow down by up to 1.8x, so every time
is drift-corrected: scaled by KERNEL_REF_S over the time of a fixed reference
kernel (child.calibrate) measured next to it in the same child. Raw seconds
stay in the run record.
  wall_s       seconds for the job list (checks excluded): each job's time over
               the mean of the kernel times before and after it, summed;
  setup_s      seconds for a fresh interpreter to import holoent, numpy included,
               over the kernel time right after the import; taken over extra
               import-only children and the job runs;
  peak_rss_mb  peak resident memory of a run's child from wait4's rusage.
--trace 1 alternates untraced and traced children on the same job list and
reports the per-layer metrics of tracing.py (medians over traced children,
raw seconds), trace.overhead (median over pairs of traced/untraced wall_s,
minus 1) and checks.worst_margin (largest error/tolerance of any check).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Any failed job makes the exit code 1. Every
run's values go to .perfbench/records/. Without ./src/holoent the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

CHILD = Path(__file__).resolve().parent / "child.py"
CHECKS = Path(__file__).resolve().parent / "checks.py"
SETUP_SAMPLES = 8
INVOCATION_LIMIT_S = 170.0  # every child is stopped by then
POLL_S = 0.02
# times are reported at the machine speed where child.calibrate takes this long
KERNEL_REF_S = 0.03
# a fixed thread count keeps runs comparable on a shared machine
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_SRC"] = src
    return env


def run_child(run_dir: Path, mode: str, env: dict, deadline: float) -> tuple[dict, float]:
    """Start child.py in `run_dir` and reap it with wait4; returns (result, peak RSS in MB).

    This parent never loads numpy, so the peak RSS that Linux carries into the
    child across exec stays below the child's own.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    result_path = run_dir / "result.json"
    with open(run_dir / "child.log", "wb") as log:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(run_dir), mode], cwd=run_dir,
                                env=env, stdout=log, stderr=log)
    pid = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                raise ChildFailed(f"{mode} child timed out")
            time.sleep(POLL_S)
    finally:
        if not pid:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = (run_dir / "child.log").read_text(errors="replace")[-2000:]
        raise ChildFailed(f"{mode} child exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8")), usage.ru_maxrss / 1024.0


def run_checks(run_dir: Path, deadline: float) -> list[dict]:
    """Check the run's outputs in a separate process (checks.py); one report per job."""
    try:
        proc = subprocess.run([sys.executable, str(CHECKS), str(run_dir)], cwd=run_dir,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed("checks timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"checks exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads((run_dir / "checks.json").read_text(encoding="utf-8"))


def write_job_files(run_dir: Path, plan: dict) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, data in plan["files"].items():
        (run_dir / name).write_text(json.dumps(data), encoding="utf-8")
    (run_dir / "jobs.json").write_text(json.dumps({"jobs": plan["jobs"]}), encoding="utf-8")


def git_state(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def corrected_setup(result: dict) -> float:
    """Import seconds at the reference speed, from the kernel timed right after the import."""
    return result["setup_s"] * KERNEL_REF_S / result["calibration_s"][0]


def one_run(plan: dict, run_dir: Path, mode: str, env: dict, deadline: float) -> dict:
    write_job_files(run_dir, plan)
    result, rss_mb = run_child(run_dir, mode, env, deadline)
    seconds = [o["seconds"] for o in result["outcomes"]]
    kernel = result["calibration_s"]
    run = {
        "mode": mode, "raw_wall_s": sum(seconds),
        "wall_s": sum(t * KERNEL_REF_S / (0.5 * (before + after))
                      for t, before, after in zip(seconds, kernel, kernel[1:])),
        "raw_setup_s": result["setup_s"], "setup_s": corrected_setup(result),
        "peak_rss_mb": rss_mb, "job_seconds": seconds, "calibration_s": kernel,
        "layers": result.get("layers"),
        "platform": result["platform"], "jobs": run_checks(run_dir, deadline),
    }
    shutil.rmtree(run_dir)
    return run


def benchmark(args, root: Path, tmp: Path) -> dict:
    deadline = time.perf_counter() + INVOCATION_LIMIT_S
    env = child_env(root)
    plan = workloads.job_list(args.workload, args.seed, workloads.load_default_schedule(root))
    run_child(tmp / "warmup", "import", env, deadline)  # compiles bytecode; not measured
    budget_end = time.perf_counter() + args.seconds

    setup_samples = []
    if not args.trace:
        for k in range(SETUP_SAMPLES):
            result, _ = run_child(tmp / f"import{k}", "import", env, deadline)
            setup_samples.append(corrected_setup(result))

    modes = ("run", "trace") if args.trace else ("run",)
    runs, longest = [], 0.0
    while not runs or time.perf_counter() + longest <= budget_end:
        begun = time.perf_counter()
        for mode in modes:
            runs.append(one_run(plan, tmp / f"run{len(runs)}", mode, env, deadline))
            setup_samples.append(runs[-1]["setup_s"])
        longest = max(longest, time.perf_counter() - begun)

    plain = [r for r in runs if r["mode"] == "run"]
    reports = [job for r in runs for job in r["jobs"]]
    failed = sum(not job["passed"] for job in reports)
    if args.trace:
        traced = [r for r in runs if r["mode"] == "trace"]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # each traced run follows an untraced run of the same jobs, so pairs share machine speed
        values["trace.overhead"] = statistics.median(
            t["wall_s"] / p["wall_s"] - 1.0 for p, t in zip(plain, traced))
        values["checks.worst_margin"] = max(job["worst_margin"] for job in reports)
        units = tracing.metric_units()
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "run_count": len(plain), "git": git_state(root), "python": platform.python_version(),
        "platform": runs[0]["platform"], "thread_env": THREAD_ENV,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "tolerances": json.loads((Path(__file__).parent / "tolerances.json").read_text()),
        "setup_samples": setup_samples, "runs": runs,
        "result": {"correct": failed == 0, "attempted": len(reports), "failed": failed,
                   "metrics": metrics},
    }


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the finally blocks that stop children


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "holoent" / "__init__.py").is_file():
        print("error: no holoent sources at ./src/holoent; run from a checkout root", file=sys.stderr)
        return 2
    tmp = root / ".perfbench" / "tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        record = benchmark(args, root, tmp)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = root / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    result = record["result"]
    for report in (job for run in record["runs"] for job in run["jobs"] if not job["passed"]):
        print(f"FAILED {report['job']}: {report['failing']} {report['error'] or ''}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {record['run_count']} runs, record {path.relative_to(root)}")
    # a failed check can leave an infinite or NaN margin; strict JSON has no such numbers
    print(json.dumps({**result, "metrics": {
        name: dict(m, value=m["value"] if math.isfinite(m["value"]) else None)
        for name, m in result["metrics"].items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
