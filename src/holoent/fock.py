"""Fock-space bookkeeping: dark bases, occupation bases and basis states.

Every other module builds its states from the primitives here.
Basis ordering is fixed (descending east occupation) so that matrices written
in the dark basis have a single, unambiguous row/column convention.

It also owns the dark-sector bounds and the rules every module applies where a value enters or a result is
certified: `check_integer` for any count (photon counts and sizes too), index or step; `check_finite` for reals;
`check_positive` for positive reals; `check_array` for arrays; `check_tolerance` against a tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12
# heap budget for the arrays one command builds in proportion to its requested size; the size
# bounds of holonomy, open_system and cli derive from it
MEMORY_BUDGET_BYTES = 64 << 20
# bound on (points + P + 1) * (P + 1), the complex entries of one batched sweep and
# its eigenvectors: the budget at 64 bytes per entry, temporaries included
MAX_SWEEP_ENTRIES = MEMORY_BUDGET_BYTES // 64
# largest photon count of a dark basis or dark-sector matrix: its (P + 1)^2 entries stay
# within MAX_SWEEP_ENTRIES
MAX_DARK_PHOTONS = math.isqrt(MAX_SWEEP_ENTRIES) - 1
SHOWN_CHARS = 60  # the most characters of a rejected value that a message shows


def max_sweep_points(photon_count: int) -> int:
    """The most points of a sweep at photon_count photons: (points + P + 1) * (P + 1) <= MAX_SWEEP_ENTRIES."""
    return MAX_SWEEP_ENTRIES // (photon_count + 1) - photon_count - 1


def _shown(value, show=str) -> str:
    """How a check shows the value it rejects: show(value) cut to SHOWN_CHARS characters ending in "...", or
    "an integer of N digits" for an int of more than 20 digits (past 4300 digits str cannot format it)."""
    if not isinstance(value, int) or -10**20 < value < 10**20:
        text = show(value)
        return text if len(text) <= SHOWN_CHARS else text[: SHOWN_CHARS - 3] + "..."
    magnitude = abs(value)
    digits = int(math.log10(magnitude)) + 1
    digits += magnitude >= 10**digits  # log10 can round across a power of ten
    digits -= magnitude < 10 ** (digits - 1)
    return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


def check_integer(name: str, value, lowest, highest, error: type[ValueError] = ValueError) -> None:
    """Raise `error` naming `name` unless value is an int or numpy integer (not a bool) in [lowest, highest]."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {_shown(value, repr)}")
    if not lowest <= value <= highest:
        raise error(f"{name} must be in [{lowest}, {highest}], got {_shown(value)}")


def check_finite(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise `error` naming `name` unless value is a finite real number (not a bool) within the float range."""
    try:
        finite = isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise error(f"{name} must be finite, got {_shown(value, repr)}")


def check_positive(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise `error` naming `name` unless value passes `check_finite` and is above zero."""
    check_finite(name, value, error)
    if not value > 0:
        raise error(f"{name} must be positive, got {_shown(value)}")


def as_array(name: str, value) -> np.ndarray:
    """np.asarray(value); raise ValueError naming `name` if numpy cannot make an array of it (a ragged sequence)."""
    try:
        return np.asarray(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers, got {_shown(value, repr)}") from None


def check_array(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """`as_array(name, value)`; raise ValueError naming `name` unless its dtype is int, unsigned, float or complex
    (not bool, text or object), its shape is `shape` and every entry is finite, naming the first that is not."""
    array = as_array(name, value)
    if array.dtype.kind not in "iufc":
        raise ValueError(f"{name} must hold real or complex numbers, got dtype {_shown(array.dtype)}")
    if array.shape != shape:
        raise ValueError(f"{name} must have shape {_shown(shape)}, got shape {_shown(array.shape)}")
    finite = np.isfinite(array)
    if not finite.all():
        index = finite.argmin()  # the first False
        raise ValueError(f"{name} must be finite, got {_shown(array.flat[index])} at flat index {index}")
    return array


def check_tolerance(name: str, value, bound, error: type[Exception] = ValueError) -> None:
    """Raise `error` naming `name`, the checked quantity, unless value <= bound; NaN fails."""
    if not value <= bound:
        raise error(f"{name} {value:.3e} exceeds {bound:g}")


@dataclass(frozen=True, order=True)
class OccupationState:
    """Photon occupation numbers (east, west) labelling one dark basis vector."""

    n_east: int
    n_west: int

    def __post_init__(self) -> None:
        check_integer("n_east", self.n_east, 0, MAX_DARK_PHOTONS)
        check_integer("n_west", self.n_west, 0, MAX_DARK_PHOTONS)

    @property
    def total(self) -> int:
        return self.n_east + self.n_west

    @property
    def label(self) -> str:
        return f"{self.n_east},{self.n_west}"

    @classmethod
    def from_label(cls, label: str) -> "OccupationState":
        parts = label.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'n_east,n_west', got {_shown(label, repr)}")
        try:
            n_east, n_west = (int(p.strip()) for p in parts)
        except ValueError as exc:
            raise ValueError(f"expected 'n_east,n_west', got {_shown(label, repr)}") from exc
        return cls(n_east, n_west)


@dataclass(frozen=True)
class DarkBasis:
    """Ordered dark basis for a fixed total photon number."""

    photon_count: int
    states: tuple[OccupationState, ...]

    @property
    def dimension(self) -> int:
        return len(self.states)

    def index_of(self, state: OccupationState) -> int:
        try:
            return self.states.index(state)
        except ValueError as exc:
            raise ValueError(f"{state} is not in the {self.photon_count}-photon dark basis") from exc

    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.states)


def dark_basis(photon_count: int) -> DarkBasis:
    """Dark basis for `photon_count` photons, ordered (P,0), (P-1,1), ..., (0,P)."""
    check_integer("photon_count", photon_count, 0, MAX_DARK_PHOTONS)
    states = tuple(OccupationState(photon_count - k, k) for k in range(photon_count + 1))
    return DarkBasis(photon_count, states)


def occupation_basis(photon_count: int, mode_count: int) -> tuple[tuple[int, ...], ...]:
    """All occupation tuples with the given total, in descending lexicographic order.

    For two modes this reproduces the dark_basis ordering, the order
    `holonomy.multimode_lift` uses; the tests index four-mode sectors with it.
    The sector's C(P + M - 1, P) tuples of M entries each must stay within
    MAX_SWEEP_ENTRIES, checked before any is built.
    """

    def _generate(remaining: int, modes: int):
        if modes == 1:
            yield (remaining,)
            return
        for n in range(remaining, -1, -1):
            for rest in _generate(remaining - n, modes - 1):
                yield (n, *rest)

    check_integer("photon_count", photon_count, 0, MAX_DARK_PHOTONS)
    check_integer("mode_count", mode_count, 1, MAX_DARK_PHOTONS)
    check_integer(f"occupation entries of {photon_count} photons in {mode_count} modes",
                  math.comb(photon_count + mode_count - 1, photon_count) * mode_count, 0, MAX_SWEEP_ENTRIES)
    return tuple(_generate(photon_count, mode_count))


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over an ordered dark basis; amplitudes of any shape are flattened."""

    basis: DarkBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        flat = as_array("amplitudes", self.amplitudes).reshape(-1)
        amp = np.asarray(check_array("amplitudes", flat, (self.basis.dimension,)), dtype=complex)
        check_tolerance("state norm defect", abs(np.linalg.norm(amp) - 1.0), NORM_TOL)
        object.__setattr__(self, "amplitudes", amp)


def basis_state(photon_count: int, index: int) -> PureState:
    """The pure state |n_east, n_west> at the given dark-basis index."""
    basis = dark_basis(photon_count)
    check_integer("index", index, 0, photon_count)
    amplitudes = np.zeros(basis.dimension, dtype=complex)
    amplitudes[index] = 1.0
    return PureState(basis, amplitudes)
