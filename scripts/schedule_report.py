#!/usr/bin/env python3
"""Characterize a pulse schedule: fitted holonomy phase, leakage, analytic comparison."""

import argparse

from holoent import adiabatic


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schedule", metavar="PATH", default=None,
                        help="schedule JSON (default: packaged)")
    args = parser.parse_args(argv)
    sched = (
        adiabatic.load_schedule(args.schedule) if args.schedule else adiabatic.default_schedule()
    )

    print(f"working pulse area Omega*T     = {sched.omega_t:.6g}")
    print(f"single-photon leakage (east)   = {adiabatic.scan_leakage(sched):.6e}")
    print(f"analytic exp(-sqrt(2) Omega T) = {adiabatic.lz_error(sched.omega_t):.6e}")
    for photons in (1, 2):
        block, leakage = adiabatic.dark_holonomy(sched, photons)
        phi = adiabatic.fit_rotation_phase(block, photons)
        print(f"P={photons}: fitted phase = {phi:+.6f} rad, dark-block leakage = {leakage:.3e}")


if __name__ == "__main__":
    main()
