"""Fock-space bookkeeping: dark bases, occupation bases and basis states.

Every other module builds its states from the primitives here.
Basis ordering is fixed (descending east occupation) so that matrices written
in the dark basis have a single, unambiguous row/column convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-12


@dataclass(frozen=True, order=True)
class OccupationState:
    """Photon occupation numbers (east, west) labelling one dark basis vector."""

    n_east: int
    n_west: int

    def __post_init__(self) -> None:
        if self.n_east < 0 or self.n_west < 0:
            raise ValueError(f"occupations must be non-negative, got {self}")

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
            raise ValueError(f"expected 'n_east,n_west', got {label!r}")
        try:
            n_east, n_west = (int(p.strip()) for p in parts)
        except ValueError as exc:
            raise ValueError(f"expected 'n_east,n_west', got {label!r}") from exc
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
    if photon_count < 0:
        raise ValueError("photon_count must be non-negative")
    states = tuple(OccupationState(photon_count - k, k) for k in range(photon_count + 1))
    return DarkBasis(photon_count, states)


def occupation_basis(photon_count: int, mode_count: int) -> tuple[tuple[int, ...], ...]:
    """All occupation tuples with the given total, in descending lexicographic order.

    For two modes this reproduces the dark_basis ordering, the order
    `holonomy.multimode_lift` uses; the tests index four-mode sectors with it.
    """

    def _generate(remaining: int, modes: int):
        if modes == 1:
            yield (remaining,)
            return
        for n in range(remaining, -1, -1):
            for rest in _generate(remaining - n, modes - 1):
                yield (n, *rest)

    if photon_count < 0:
        raise ValueError("photon_count must be non-negative")
    if mode_count < 1:
        raise ValueError("mode_count must be positive")
    return tuple(_generate(photon_count, mode_count))


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector over an ordered dark basis."""

    basis: DarkBasis
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.shape[0] != self.basis.dimension:
            raise ValueError(
                f"amplitude vector has length {amp.shape[0]}, basis dimension is {self.basis.dimension}"
            )
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", amp)


def basis_state(photon_count: int, index: int) -> PureState:
    """The pure state |n_east, n_west> at the given dark-basis index."""
    basis = dark_basis(photon_count)
    if not 0 <= index < basis.dimension:
        raise ValueError(f"index {index} out of range for a {basis.dimension}-dimensional basis")
    amplitudes = np.zeros(basis.dimension, dtype=complex)
    amplitudes[index] = 1.0
    return PureState(basis, amplitudes)
