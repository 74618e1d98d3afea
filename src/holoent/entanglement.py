"""Entanglement quantification for states split between east and west waveguides.

The bipartition is physical (east vs west). A P-photon dark state pairs east
occupation P-k with west occupation k, so its east reduction is diag(|a_k|^2)
and its entropy and Schmidt coefficients come from the amplitudes. Mixed states
get partial traces, von Neumann / Renyi-2 entropies, the purity-based
separability test and logarithmic negativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .fock import PureState

Side = Literal["east", "west"]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-12
NEGATIVE_EIGENVALUE_TOL = 1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian unit-trace matrix over a product of occupation-number modes.

    `dims` lists the local dimensions; the flat index is east-major, i.e.
    index = n_east * d_west + n_west for the two-mode case.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        side = math.prod(self.dims)
        if m.shape != (side, side):
            raise ValueError(f"matrix shape {m.shape} does not match dims {self.dims}")
        herm_defect = np.abs(m - m.conj().T).max()
        if not herm_defect <= HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
        trace_defect = abs(np.trace(m) - 1.0)
        if not trace_defect <= TRACE_TOL:
            raise ValueError(f"trace deviates from 1 by {trace_defect:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))


def density_from_pure(state: PureState) -> DensityMatrix:
    """Projector |psi><psi| of a dark state embedded in the two-mode product space."""
    d = state.basis.photon_count + 1
    psi = np.zeros(d * d, dtype=complex)
    for amp, occ in zip(state.amplitudes, state.basis.states):
        psi[occ.n_east * d + occ.n_west] = amp
    return DensityMatrix(np.outer(psi, psi.conj()), (d, d))


def _require_bipartite(dims: tuple[int, ...]) -> tuple[int, int]:
    if len(dims) != 2:
        raise ValueError(f"operation needs a bipartite density matrix, got dims {dims}")
    return dims[0], dims[1]


def reduce(rho: DensityMatrix, keep: Side) -> DensityMatrix:
    """Partial trace over the discarded mode."""
    d_east, d_west = _require_bipartite(rho.dims)
    t = rho.matrix.reshape(d_east, d_west, d_east, d_west)
    if keep == "east":
        reduced = np.einsum("ijkj->ik", t)
        dims = (d_east,)
    elif keep == "west":
        reduced = np.einsum("ijil->jl", t)
        dims = (d_west,)
    else:
        raise ValueError(f"keep must be 'east' or 'west', got {keep!r}")
    return DensityMatrix(reduced, dims)


def _checked_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    evals = np.linalg.eigvalsh(rho.matrix)
    if not -evals.min() <= NEGATIVE_EIGENVALUE_TOL:
        raise ValueError(f"density matrix has eigenvalue {evals.min():.3e} below tolerance")
    return np.clip(evals, 0.0, None)


def entropy_bits(populations: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) over the last axis; populations at or below the floor count as zero."""
    p = np.where(populations <= EIGENVALUE_FLOOR, 1.0, populations)  # NaN propagates
    return np.maximum(0.0, -(p * np.log2(p)).sum(axis=-1)) + 0.0


def von_neumann_entropy_bits(rho: DensityMatrix) -> float:
    """-Tr(rho log2 rho); eigenvalues below the floor contribute nothing."""
    return float(entropy_bits(_checked_eigenvalues(rho)))


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2)."""
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def renyi2_bits(rho: DensityMatrix) -> float:
    """Second-order Renyi entropy, -log2 Tr(rho^2)."""
    return -math.log2(purity(rho)) + 0.0


def entropic_inequality_violated(global_rho: DensityMatrix) -> tuple[bool, bool]:
    """Purity-based separability test per subsystem.

    Separable states keep each subsystem purity at or above the global purity;
    a strictly smaller subsystem purity therefore witnesses entanglement.
    """
    _require_bipartite(global_rho.dims)
    global_purity = purity(global_rho)
    east_purity = purity(reduce(global_rho, "east"))
    west_purity = purity(reduce(global_rho, "west"))
    margin = 1e-12
    return east_purity < global_purity - margin, west_purity < global_purity - margin


def schmidt(state: PureState) -> np.ndarray:
    """Descending Schmidt coefficients across the east/west split: the sorted |a_k|."""
    return np.sort(np.abs(state.amplitudes))[::-1]


def entanglement_entropy_bits(state: PureState) -> float:
    """Entanglement entropy of a pure dark state (entropy of the east reduction)."""
    return float(entropy_bits(np.abs(state.amplitudes) ** 2))


def _transpose_mode(matrices: np.ndarray, dims: tuple[int, int], side: Side) -> np.ndarray:
    """Partial transpose of bipartite matrices batched over leading axes."""
    d_east, d_west = dims
    t = matrices.reshape(matrices.shape[:-2] + (d_east, d_west, d_east, d_west))
    if side == "east":
        swapped = np.swapaxes(t, -4, -2)
    elif side == "west":
        swapped = np.swapaxes(t, -3, -1)
    else:
        raise ValueError(f"side must be 'east' or 'west', got {side!r}")
    return swapped.reshape(matrices.shape)


def partial_transpose(rho: DensityMatrix, side: Side) -> np.ndarray:
    """Transpose the chosen mode's indices; Hermitian, unit trace, possibly non-PSD."""
    return _transpose_mode(rho.matrix, _require_bipartite(rho.dims), side)


def log_negativity_bits(matrices: np.ndarray, dims: tuple[int, int], side: Side = "east") -> np.ndarray:
    """log2 of the trace norm of the partial transpose, clamped at zero, batched over leading axes.

    `matrices` has shape (..., d_east * d_west, d_east * d_west) with the flat
    index convention of DensityMatrix; one eigvalsh covers the whole batch.
    """
    pt = _transpose_mode(matrices, _require_bipartite(dims), side)
    trace_norm = np.abs(np.linalg.eigvalsh(pt)).sum(axis=-1)
    return np.maximum(0.0, np.log2(trace_norm))


def log_negativity(rho: DensityMatrix, side: Side = "east") -> float:
    """log2 of the trace norm of the partial transpose, clamped at zero."""
    return float(log_negativity_bits(rho.matrix, rho.dims, side))
