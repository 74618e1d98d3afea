"""Command-line front-end emitting deterministic CSV/JSON datasets.

Subcommands: basis, sweep, loss, volume, diabatic. All numeric output is
formatted to 12 significant digits and files are written atomically (temp file
plus rename), so identical invocations produce byte-identical files.

A dataset command hands `_emit` its table as columns, not rows: an ordered
mapping from column name to a 1-D float array, a constant string, or a short
sequence of per-row text cells. Each format renders a table through one row
template (for CSV, such as "%.12g,%.12g,..." with its text quoted once by the
csv rules), ROW_BLOCK rows at a time, straight into the output file. A block of rows is one
`%` call: the template repeated once per row, filled from one flat tuple of the block's cells.

Argparse only turns option text into an int or a float. Every integer option is checked first,
by the command's own `check_integer`, which names it ("--photons must be in [0, 1023], got 1024");
the upper bound of --points, `fock.max_sweep_points`, depends on the photon count checked before
it. Each other value is checked by the library function it reaches. A value that fails exits 2 with
`error: ...` on stderr.

Exit codes: 0 success, 2 invalid input, 3 unwritable output path,
4 integrator abort, 5 schedule boundary-condition violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np

from . import adiabatic, entanglement, fock, holonomy, open_system
from .fock import MAX_DARK_PHOTONS, MEMORY_BUDGET_BYTES, OccupationState, basis_state, check_integer, dark_basis

# pulse area at which the analytic single-photon diabatic error is 4%
WORKING_POINT_OMEGA_T = -math.log(0.04) / math.sqrt(2.0)

EXIT_INVALID_INPUT = 2
EXIT_UNWRITABLE = 3
EXIT_INTEGRATOR = 4
EXIT_SCHEDULE = 5
# upper bound on --scan-points: the memory budget at 1024 bytes per point. A diabatic run
# holds a dilated schedule and a result row per point; its tracemalloc peak grows by about
# 790 bytes per point (2000 to 8000 points of a cheap schedule)
MAX_SCAN_POINTS = MEMORY_BUDGET_BYTES // 1024

FLOAT_CELL = "%.12g"  # the one rule for a float cell: 12 significant digits
# rows rendered per write, and sweep rotations built per pass, so what is held at once for them
# does not grow with the table
ROW_BLOCK = 256


class CliError(Exception):
    """The output path cannot be written (exit EXIT_UNWRITABLE)."""


def _fmt(value: float) -> str:
    return FLOAT_CELL % float(value)


def _csv_line(cells) -> str:
    """One row as the csv module writes it: minimal quoting, CRLF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()


def _csv_cell(cell: str | bool) -> str:
    """A per-row text cell as the csv module writes it within a row; a bool is true/false."""
    return _csv_line((("true" if cell else "false") if isinstance(cell, bool) else cell, ""))[:-3]


def _json_number(value: float) -> str:
    """float(_fmt(value)) as json.dumps writes it, without a json.dumps call per finite cell."""
    number = float(_fmt(value))
    return float.__repr__(number) if math.isfinite(number) else json.dumps(number)


def _row_blocks(columns: dict, number, text):
    """The row count and the per-row cells, row after row in one tuple, of each block of ROW_BLOCK
    rows: number(x) per float (x if number is None), text(cell) per text cell. Constant strings
    are left to the row template."""
    varying = [column for column in columns.values() if not isinstance(column, str)]
    for start in range(0, len(varying[0]), ROW_BLOCK):
        block = [column[start : start + ROW_BLOCK] for column in varying]
        yield len(block[0]), tuple(chain.from_iterable(zip(*(
            map(text, cells) if not isinstance(cells, np.ndarray) else
            cells.tolist() if number is None else map(number, cells.tolist()) for cells in block))))


def _render_csv(columns: dict):
    yield _csv_line(columns)
    template = _csv_line(FLOAT_CELL if isinstance(column, np.ndarray) else column.replace("%", "%%")
                         if isinstance(column, str) else "%s" for column in columns.values())
    for count, cells in _row_blocks(columns, None, _csv_cell):
        yield (template * count) % cells


def _render_json(columns: dict):
    """The text of json.dumps(rows, indent=2) for the row objects, each float as float(_fmt(x))."""
    template = "  {\n" + ",\n".join(
        f"    {json.dumps(name)}: ".replace("%", "%%")
        + (json.dumps(column).replace("%", "%%") if isinstance(column, str) else "%s")
        for name, column in columns.items()
    ) + "\n  }"
    opening = "[\n"
    for count, cells in _row_blocks(columns, _json_number, json.dumps):
        yield opening + ",\n".join([template] * count) % cells
        opening = ",\n"
    yield "[]\n" if opening == "[\n" else "\n]\n"


def _write_text(path: str | None, chunks) -> None:
    """Write the text chunks to stdout, or to `path` atomically: temp file plus rename."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    target = Path(path)
    try:
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".", suffix=".tmp")
    except OSError as exc:
        raise CliError(f"cannot write to {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, target)
    except OSError as exc:
        raise CliError(f"cannot write to {path}: {exc}") from exc
    finally:  # the temp file is gone after the rename, and removed on any failure, rendering included
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)


def _emit(args, columns: dict) -> int:
    """Write `columns` in the format `args` asks for, rendered through one row template as written.

    `columns` maps each column name, in output order, to a 1-D float array (cells written
    by the rule of `_fmt`), a constant string, or a short sequence of per-row text cells
    (str, or bool written true/false). The table is never held as rows.
    """
    _write_text(args.output, (_render_json if args.json else _render_csv)(columns))
    return 0


def _parse_input_label(label: str, photons: int) -> int:
    occ = OccupationState.from_label(label)
    if occ.total != photons:
        raise ValueError(f"input {fock._shown(label, repr)} has {occ.total} photons, expected {photons}")
    return dark_basis(photons).index_of(occ)


def _sweep_amplitudes(phis: np.ndarray, photons: int, index: int) -> np.ndarray:
    """Column `index` of fock_lift(R(phi), photons) for each phase, one row per phase.

    One fock_lift per phase, as perfbench/test_perfbench.py asserts, and no other Python work per
    phase: the rotations are built ROW_BLOCK phases at a time (a whole-sweep stack would double
    the sweep's per-point peak), and each lift is freed once its column is copied.
    """
    amplitudes = np.empty((len(phis), photons + 1), dtype=complex)
    for start in range(0, len(phis), ROW_BLOCK):
        rows = amplitudes[start : start + ROW_BLOCK]
        for row, rotation in zip(rows, holonomy.single_mode_rotation(phis[start : start + ROW_BLOCK])):
            row[:] = holonomy.fock_lift(rotation, photons)[:, index]
    return amplitudes


def _sweep_phases(points: int) -> np.ndarray:
    """The grid k pi / points, k < points, and each marker phase that is not on it, in increasing order.

    A marker counts as on the grid when it lies within rounding of its nearest grid phase: pi/4 is
    on the grid when 4 divides `points`, and k (pi / points) can round one ulp away from it.
    """
    step = math.pi / points
    markers = [phi for phi in (holonomy.phi_maximally_entangled(), math.pi / 4.0)
               if abs(round(phi / step) * step - phi) > 4.0 * math.ulp(phi)]
    # not np.union1d: np.unique imports numpy.ma, 12 ms
    return np.sort(np.concatenate([np.arange(points) * step, markers]))


def cmd_sweep(args) -> int:
    check_integer("--photons", args.photons, 1, holonomy.MAX_LIFT_PHOTONS)
    check_integer("--points", args.points, 1, fock.max_sweep_points(args.photons))
    index = _parse_input_label(args.input, args.photons)
    phis = _sweep_phases(args.points)
    populations = np.abs(_sweep_amplitudes(phis, args.photons, index))  # the peak holds one such table
    populations **= 2
    purities = (populations * populations).sum(axis=-1)
    renyi2 = -np.fromiter(map(math.log2, purities), float, len(purities)) + 0.0
    return _emit(args, {"phi": phis, "entropy_bits": entanglement.entropy_bits(populations),
                        "purity": purities, "renyi2_bits": renyi2, "input_label": args.input})


@functools.cache
def _loss_plans() -> tuple[open_system.LossPlan, open_system.LossPlan]:
    """The loss plans of the holonomic state and the Bell qutrit: constants of the CLI, built by the
    first `loss` of a process. Only the plans are kept, not the states."""
    out = holonomy.apply_holonomy(holonomy.u3(holonomy.phi_maximally_entangled()), basis_state(2, 1))
    return (open_system.plan_loss(entanglement.density_from_pure(out)),
            open_system.plan_loss(open_system.bell_qutrit_state()))


def cmd_loss(args) -> int:
    check_integer("--steps", args.steps, 1, open_system.MAX_LOSS_STEPS)
    cfg = open_system.LossConfig(t_max=args.t_max, steps=args.steps)
    holonomic, bell = _loss_plans()
    traj_holonomic = open_system.evolve(holonomic, cfg)
    traj_bell = open_system.evolve(bell, cfg)
    times = traj_holonomic.times
    exp_decay = np.fromiter(map(math.exp, -times), float, len(times))
    return _emit(args, {"t_gamma": times, "negativity_holonomic": traj_holonomic.negativity,
                        "negativity_bell": traj_bell.negativity, "exp_decay": exp_decay})


def cmd_volume(args) -> int:
    check_integer("--max-photons", args.max_photons, 1, 6)  # a desk-scale guard
    check_integer("--points", args.points, 8, fock.max_sweep_points(args.max_photons))
    rows = []
    for photons in range(1, args.max_photons + 1):
        dimension = photons + 1
        best_phi, best_entropy, best_index = None, -1.0, 0
        # Mirror symmetry: swapping east and west maps R(phi) to R(-phi), and the entropy is
        # pi-periodic in phi, so input P-k reaches the entropy of input k at pi - phi and peaks
        # as high. Ties keep the lower index, so the inputs k <= P/2 decide the row.
        for index in range(photons // 2 + 1):
            phi, entropy = holonomy.max_entropy_over_phase(photons, index, args.points)
            if entropy > best_entropy + 1e-12:
                best_phi, best_entropy, best_index = phi, entropy, index
        ceiling = math.log2(dimension)
        label = dark_basis(photons).states[best_index].label
        rows.append((ceiling, best_entropy, best_phi, label, best_entropy >= ceiling - 1e-6))
    volume, entropy, phi, label, maximal = zip(*rows)
    return _emit(args, {"volume": np.array(volume), "best_entropy_bits": np.array(entropy),
                        "best_phi": np.array(phi), "best_input": label, "maximal": maximal})


def cmd_diabatic(args) -> int:
    check_integer("--scan-points", args.scan_points, 2, MAX_SCAN_POINTS)
    path = args.schedule
    schedule = adiabatic.default_schedule() if path is None else adiabatic.load_schedule(path)
    if not 0 < args.scan_from < args.scan_to < math.inf:  # before np.linspace meets an inf
        raise ValueError(f"scan range must satisfy 0 < from < to < inf, got {args.scan_from} to {args.scan_to}")
    omega_ts = np.linspace(args.scan_from, args.scan_to, args.scan_points)
    omega_t, leakage, analytic = np.array(adiabatic.diabatic_scan(schedule, omega_ts)).T
    return _emit(args, {"omega_t": omega_t, "leakage": leakage, "lz_error": analytic,
                        "u3_total": 2.0 * analytic})


def cmd_basis(args) -> int:
    check_integer("--photons", args.photons, 0, MAX_DARK_PHOTONS)
    labels = list(dark_basis(args.photons).labels())
    text = json.dumps(labels, indent=2) + "\n" if args.json else "".join(label + "\n" for label in labels)
    _write_text(args.output, [text])
    return 0


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
    p.add_argument("--photons", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("sweep", help="entanglement measures vs phase for one basis input")
    p.add_argument("--input", required=True, metavar="LABEL", help="basis state, e.g. '1,1'")
    p.add_argument("--photons", type=int, default=2)
    p.add_argument("--points", type=int, default=holonomy.DEFAULT_SWEEP_POINTS)
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("loss", help="negativity decay of the two reference states under equal loss")
    p.add_argument("--t-max", type=float, default=open_system.LossConfig.t_max, help="duration in units of 1/gamma")
    p.add_argument("--steps", type=int, default=open_system.LossConfig.steps, help="sampling intervals up to t_max")
    add_common(p)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("volume", help="best achievable entropy per photon number")
    p.add_argument("--max-photons", type=int, default=4)
    p.add_argument("--points", type=int, default=holonomy.DEFAULT_SWEEP_POINTS)
    add_common(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("diabatic", help="numeric dark-subspace leakage vs the analytic estimate")
    p.add_argument("--schedule", metavar="PATH", default=None, help="schedule JSON (default: packaged)")
    p.add_argument("--scan-from", type=float, default=WORKING_POINT_OMEGA_T)
    p.add_argument("--scan-to", type=float, default=5.0)
    p.add_argument("--scan-points", type=int, default=10)
    add_common(p)
    p.set_defaults(func=cmd_diabatic)

    return parser


_parser = functools.lru_cache(maxsize=1)(build_parser)  # one per process: a build takes ~1 ms

# the exit code of each error, most specific first: a ScheduleError is a ValueError
_EXIT_CODES = ((CliError, EXIT_UNWRITABLE), (adiabatic.ScheduleError, EXIT_SCHEDULE),
               (open_system.IntegrationError, EXIT_INTEGRATOR), (ValueError, EXIT_INVALID_INPUT))


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
