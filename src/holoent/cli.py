"""Command-line front-end emitting deterministic CSV/JSON datasets.

Subcommands: basis, sweep, loss, volume, diabatic. All numeric output is
formatted to 12 significant digits and files are written atomically (temp file
plus rename), so identical invocations produce byte-identical files.

Exit codes: 0 success, 2 invalid input, 3 unwritable output path,
4 integrator abort, 5 schedule boundary-condition violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import adiabatic, entanglement, holonomy, open_system
from .fock import OccupationState, basis_state, dark_basis

# pulse area at which the analytic single-photon diabatic error is 4%
WORKING_POINT_OMEGA_T = -math.log(0.04) / math.sqrt(2.0)

EXIT_INVALID_INPUT = 2
EXIT_UNWRITABLE = 3
EXIT_INTEGRATOR = 4
EXIT_SCHEDULE = 5


class CliError(Exception):
    """The output path cannot be written (exit EXIT_UNWRITABLE)."""


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


def _render_csv(columns: list[str], records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(columns)
    for record in records:
        row = []
        for name in columns:
            value = record[name]
            if isinstance(value, bool):
                row.append("true" if value else "false")
            elif isinstance(value, str):
                row.append(value)
            else:
                row.append(_fmt(value))
        writer.writerow(row)
    return buf.getvalue()


def _render_json(records: list[dict] | list[str]) -> str:
    """JSON text whose float cells carry the same 12 significant digits as the CSV."""
    rows = [
        record if isinstance(record, str)
        else {name: float(_fmt(v)) if isinstance(v, float) else v for name, v in record.items()}
        for record in records
    ]
    return json.dumps(rows, indent=2) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    target = Path(path)
    parent = target.parent if str(target.parent) else Path(".")
    try:
        fd, tmp_name = tempfile.mkstemp(dir=parent, prefix=target.name + ".", suffix=".tmp")
    except OSError as exc:
        raise CliError(f"cannot write to {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, target)
    except OSError as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise CliError(f"cannot write to {path}: {exc}") from exc


def _emit(args, columns: list[str], records: list[dict]) -> int:
    text = _render_json(records) if args.json else _render_csv(columns, records)
    _write_text(args.output, text)
    return 0


def _parse_input_label(label: str, photons: int) -> int:
    occ = OccupationState.from_label(label)
    if occ.total != photons:
        raise ValueError(f"input {label!r} has {occ.total} photons, expected {photons}")
    return dark_basis(photons).index_of(occ)


def cmd_sweep(args) -> int:
    holonomy.check_sweep_size(args.photons, args.points)
    index = _parse_input_label(args.input, args.photons)
    step = math.pi / args.points
    phis = [k * step for k in range(args.points)]
    for marker in (holonomy.phi_maximally_entangled(), math.pi / 4.0):
        if marker not in phis:
            phis.append(marker)
    phis.sort()
    # one fock_lift per phase, as perfbench/test_perfbench.py asserts; each lift is freed once copied
    amplitudes = np.empty((len(phis), args.photons + 1), dtype=complex)
    for row, phi in zip(amplitudes, phis):
        row[:] = holonomy.fock_lift(holonomy.single_mode_rotation(phi), args.photons)[:, index]
    populations = np.abs(amplitudes) ** 2
    purities = (populations * populations).sum(axis=-1)
    records = [
        dict(phi=phi, entropy_bits=s, purity=p, renyi2_bits=-math.log2(p) + 0.0, input_label=args.input)
        for phi, s, p in zip(phis, entanglement.entropy_bits(populations), purities)
    ]
    return _emit(args, ["phi", "entropy_bits", "purity", "renyi2_bits", "input_label"], records)


def cmd_loss(args) -> int:
    cfg = open_system.LossConfig(t_max=args.t_max, steps=args.steps)
    u = holonomy.u3(holonomy.phi_maximally_entangled())
    out = holonomy.apply_holonomy(u, basis_state(2, 1))
    rho_holonomic = entanglement.density_from_pure(out)
    rho_bell = open_system.bell_qutrit_state()
    traj_holonomic = open_system.evolve(rho_holonomic, cfg)
    traj_bell = open_system.evolve(rho_bell, cfg)
    records = [
        {
            "t_gamma": t,
            "negativity_holonomic": n_h,
            "negativity_bell": n_b,
            "exp_decay": math.exp(-t),
        }
        for t, n_h, n_b in zip(traj_holonomic.times, traj_holonomic.negativity, traj_bell.negativity)
    ]
    return _emit(args, ["t_gamma", "negativity_holonomic", "negativity_bell", "exp_decay"], records)


def cmd_volume(args) -> int:
    if args.max_photons > 6:
        raise ValueError("--max-photons is capped at 6 (desk-scale guard)")
    holonomy.check_sweep_size(args.max_photons, args.points)
    records = []
    for photons in range(1, args.max_photons + 1):
        dimension = photons + 1
        best_phi, best_entropy, best_index = None, -1.0, 0
        for index in range(dimension):
            phi, entropy = holonomy.max_entropy_over_phase(photons, index, args.points)
            if entropy > best_entropy + 1e-12:
                best_phi, best_entropy, best_index = phi, entropy, index
        ceiling = math.log2(dimension)
        records.append(
            {
                "volume": ceiling,
                "best_entropy_bits": best_entropy,
                "best_phi": best_phi,
                "best_input": dark_basis(photons).states[best_index].label,
                "maximal": best_entropy >= ceiling - 1e-6,
            }
        )
    return _emit(args, ["volume", "best_entropy_bits", "best_phi", "best_input", "maximal"], records)


def cmd_diabatic(args) -> int:
    if args.schedule is None:
        schedule = adiabatic.default_schedule()
    else:
        schedule = adiabatic.load_schedule(args.schedule)
    if args.scan_points < 2:
        raise ValueError("--scan-points must be >= 2")
    if not 0 < args.scan_from < args.scan_to:
        raise ValueError("scan range must satisfy 0 < from < to")
    omega_ts = list(np.linspace(args.scan_from, args.scan_to, args.scan_points))
    scan = adiabatic.diabatic_scan(schedule, omega_ts)
    records = [
        {
            "omega_t": omega_t,
            "leakage": leakage,
            "lz_error": analytic,
            "u3_total": 2.0 * analytic,
        }
        for omega_t, leakage, analytic in scan
    ]
    return _emit(args, ["omega_t", "leakage", "lz_error", "u3_total"], records)


def cmd_basis(args) -> int:
    holonomy.check_dark_photons(args.photons, "basis")
    labels = list(dark_basis(args.photons).labels())
    text = _render_json(labels) if args.json else "".join(label + "\n" for label in labels)
    _write_text(args.output, text)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0 or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoent",
        description="Holonomic photonic entangler simulator: deterministic CSV/JSON datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", metavar="PATH", default=None, help="output file (default: stdout)")
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")

    p = sub.add_parser("basis", help="print the dark basis for a photon number")
    p.add_argument("--photons", type=_non_negative_int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("sweep", help="entanglement measures vs phase for one basis input")
    p.add_argument("--input", required=True, metavar="LABEL", help="basis state, e.g. '1,1'")
    p.add_argument("--photons", type=_positive_int, default=2)
    p.add_argument("--points", type=_positive_int, default=holonomy.DEFAULT_SWEEP_POINTS)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("loss", help="negativity decay of the two reference states under equal loss")
    p.add_argument("--t-max", type=_positive_float, default=10.0, help="duration in units of 1/gamma")
    p.add_argument("--steps", type=_positive_int, default=1000, help="sampling intervals up to t_max")
    add_common(p)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("volume", help="best achievable entropy per photon number")
    p.add_argument("--max-photons", type=_positive_int, default=4)
    p.add_argument("--points", type=_positive_int, default=holonomy.DEFAULT_SWEEP_POINTS)
    add_common(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("diabatic", help="numeric dark-subspace leakage vs the analytic estimate")
    p.add_argument("--schedule", metavar="PATH", default=None, help="schedule JSON (default: packaged)")
    p.add_argument("--scan-from", type=_positive_float, default=WORKING_POINT_OMEGA_T)
    p.add_argument("--scan-to", type=_positive_float, default=5.0)
    p.add_argument("--scan-points", type=_positive_int, default=10)
    add_common(p)
    p.set_defaults(func=cmd_diabatic)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    except adiabatic.ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEDULE
    except open_system.IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
