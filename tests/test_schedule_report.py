import importlib.util
from pathlib import Path

import pytest

from holoent import adiabatic

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "schedule_report.py"


@pytest.fixture(scope="module")
def schedule_report():
    spec = importlib.util.spec_from_file_location("schedule_report", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_schedule_report_propagates_once(schedule_report, cf4_steps, capsys):
    schedule_report.main([])
    lines = capsys.readouterr().out.splitlines()
    assert cf4_steps == [136, 272, 544, 1088, 2176]

    sched = adiabatic.default_schedule()
    expected = [
        "working pulse area Omega*T     = 10",
        f"single-photon leakage (east)   = {adiabatic.scan_leakage(sched):.6e}",
        f"analytic exp(-sqrt(2) Omega T) = {adiabatic.lz_error(sched.omega_t):.6e}",
    ]
    for photons in (1, 2):
        block, leakage = adiabatic.dark_holonomy(sched, photons)
        phi = adiabatic.fit_rotation_phase(block, photons)
        expected.append(f"P={photons}: fitted phase = {phi:+.6f} rad, dark-block leakage = {leakage:.3e}")
    assert lines == expected
