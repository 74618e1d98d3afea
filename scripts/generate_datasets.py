#!/usr/bin/env python3
"""Produce the full dataset suite into one directory.

Covers the entropy/purity sweeps for the three two-photon basis inputs, the
loss-negativity trajectories, the volume-law scan, and the diabatic-leakage
scan, all with the library defaults.
"""

import argparse
from pathlib import Path

from holoent.cli import main as holoent_main

DATASETS = [
    ("entropy_sweep_20.csv", ["sweep", "--input", "2,0"]),
    ("entropy_sweep_02.csv", ["sweep", "--input", "0,2"]),
    ("entropy_sweep_11.csv", ["sweep", "--input", "1,1"]),
    ("loss_negativity.csv", ["loss"]),
    ("volume_law.csv", ["volume"]),
    ("diabatic_scan.csv", ["diabatic"]),
]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("datasets"))
    parser.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for filename, command in DATASETS:
        if args.json:
            filename = filename.replace(".csv", ".json")
            command = command + ["--json"]
        target = args.outdir / filename
        code = holoent_main(command + ["--output", str(target)])
        if code != 0:
            raise SystemExit(code)
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
