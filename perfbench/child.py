"""One benchmark run in a fresh interpreter: timed import, then the job list.

Usage: python3 child.py RUN_DIR MODE, with MODE one of
  import  time `import holoent` (numpy included), then the reference kernel;
  run     also run RUN_DIR/jobs.json, timing each job;
  trace   as run, with the layer tracer installed around the jobs.
The working directory must be RUN_DIR. Results go to RUN_DIR/result.json.
Jobs call `holoent` through module attributes at call time, so the tracer's
wrappers see them; outputs are checked afterwards by checks.py.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path


def timed_import():
    start = time.perf_counter()
    import numpy  # noqa: F401
    import holoent
    import holoent.cli  # noqa: F401

    return time.perf_counter() - start, holoent


def run_job(holoent, job: dict) -> dict:
    """Run one job; returns its exit code or library result, or the error it raised."""
    outcome = {"code": None, "error": None, "result": None}
    start = time.perf_counter()
    try:
        if job["kind"] == "cli":
            try:
                outcome["code"] = holoent.cli.main(list(job["argv"]))
            except SystemExit as exc:  # argparse rejections
                outcome["code"] = exc.code
        else:
            adiabatic = holoent.adiabatic
            schedule = adiabatic.load_schedule(job["schedule"])
            block, leakage = adiabatic.dark_holonomy(schedule, job["photons"])
            phi = adiabatic.fit_rotation_phase(block, job["photons"])
            outcome["result"] = {"block_re": block.real.tolist(), "block_im": block.imag.tolist(),
                                 "leakage": float(leakage), "phi": float(phi)}
    except Exception:  # a failing job is recorded, the run goes on
        outcome["error"] = traceback.format_exc(limit=-3)
    outcome["seconds"] = time.perf_counter() - start
    return outcome


def calibrate() -> float:
    """Seconds for a fixed reference kernel, independent of `holoent`.

    It mixes the kinds of work the program does: a dict-polynomial expansion,
    a loop of small complex matrix products and small Hermitian eigenvalue
    problems. Timed between jobs, it tracks the speed of the machine.
    """
    import numpy

    start = time.perf_counter()
    for _ in range(12):
        poly = {(0, 0, 0, 0): 1.0 + 0.0j}
        for _ in range(6):
            grown = {}
            for mono, coeff in poly.items():
                for j in range(4):
                    key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                    grown[key] = grown.get(key, 0.0j) + coeff * 0.5
            poly = grown
    g = numpy.full((4, 4), 0.01j)
    u = numpy.eye(4, dtype=complex)
    for _ in range(3000):
        k = g @ u
        u = u + 0.1 * (k + g @ (u + 0.05 * k))
    h = numpy.eye(9, dtype=complex) + 0.1j * (numpy.tri(9) - numpy.tri(9).T)
    for _ in range(600):
        numpy.linalg.eigvalsh(h)
    return time.perf_counter() - start


def run_jobs(holoent, jobs: list[dict], tracer=None) -> tuple[list[dict], list[float]]:
    """Outcomes of the jobs, and kernel times taken right after import, between jobs and last."""
    context = contextlib.nullcontext()
    if tracer is not None:
        import tracing

        context = tracing.installed(tracer)
    outcomes, calibration = [], [calibrate()]
    with context:
        for job in jobs:
            outcomes.append(run_job(holoent, job))
            calibration.append(calibrate())
    return outcomes, calibration


def blas_info() -> dict:
    """BLAS library name and version, and its thread count where it can be asked."""
    import ctypes

    import numpy

    info = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError, AttributeError):
        info["blas"] = None
    info["blas_threads"] = None
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("lib*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def main(argv: list[str]) -> int:
    run_dir, mode = Path(argv[0]), argv[1]
    setup_s, holoent = timed_import()
    expected_src = os.environ.get("PERFBENCH_SRC")
    if expected_src and Path(expected_src).resolve() not in Path(holoent.__file__).resolve().parents:
        print(f"holoent imported from {holoent.__file__}, not from {expected_src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    if mode == "import":
        result["calibration_s"] = [calibrate()]
    else:
        jobs = json.loads((run_dir / "jobs.json").read_text(encoding="utf-8"))["jobs"]
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
        result["outcomes"], result["calibration_s"] = run_jobs(holoent, jobs, tracer)
        if tracer is not None:
            result["layers"] = tracer.metrics()
        result["platform"] = blas_info()
    (run_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
