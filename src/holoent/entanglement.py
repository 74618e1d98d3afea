"""Entanglement quantification for states split between east and west waveguides.

The bipartition is physical (east vs west). A P-photon dark state pairs east
occupation P-k with west occupation k, so its east reduction is diag(|a_k|^2)
and its entropy and Schmidt coefficients come from the amplitudes. Mixed states
get partial traces, von Neumann / Renyi-2 entropies, the purity-based
separability test and logarithmic negativity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .fock import PureState, _shown, check_array, check_integer, check_tolerance

Side = Literal["east", "west"]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = 1e-12
FLOOR_RAMP = 1e-3  # width of entropy_bits' ramp above the floor, relative to the floor
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
        if not (isinstance(self.dims, Sequence) and self.dims):
            raise ValueError(f"dims must be a non-empty sequence of mode dimensions, got {_shown(self.dims, repr)}")
        for dim in self.dims:
            check_integer("dims", dim, 1, math.inf)
        m = np.asarray(check_array("matrix", self.matrix, (math.prod(self.dims),) * 2), dtype=complex)
        check_tolerance("Hermiticity defect", np.abs(m - m.conj().T).max(), HERMITICITY_TOL)
        check_tolerance("trace defect", abs(np.trace(m) - 1.0), TRACE_TOL)
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
        raise ValueError(f"operation needs a bipartite density matrix, got dims {_shown(dims)}")
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
        raise ValueError(f"keep must be 'east' or 'west', got {_shown(keep, repr)}")
    return DensityMatrix(reduced, dims)


def _checked_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    evals = np.linalg.eigvalsh(rho.matrix)
    check_tolerance("negated lowest eigenvalue of the density matrix", -evals.min(), NEGATIVE_EIGENVALUE_TOL)
    return np.clip(evals, 0.0, None)


def floor_ramp(populations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight w of each population's term -p log2 p in `entropy_bits`, and dw/dp.

    w is 0 at or below EIGENVALUE_FLOOR, rises linearly to 1 at (1 + FLOOR_RAMP) times the
    floor and is 1 above. Without the ramp the entropy would step by the floor's
    p log2(1/p), about 4e-11 bits, where a population crosses the floor. The ramp is narrow,
    so the entropy keeps the plain floor rule outside it; its slope, about 4e4 bits per unit
    population, turns a population's rounding error into far less than 1e-15 bits.
    """
    width = FLOOR_RAMP * EIGENVALUE_FLOOR
    t = (populations - EIGENVALUE_FLOOR) / width
    return np.clip(t, 0.0, 1.0), np.where((0.0 < t) & (t < 1.0), 1.0 / width, 0.0)


def entropy_bits(populations: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) over the last axis.

    Populations at or below the floor count as zero, and each term is weighted by `floor_ramp`,
    so the entropy is continuous in the populations.
    """
    p = np.where(populations <= EIGENVALUE_FLOOR, 1.0, populations)  # NaN propagates
    p *= np.log2(p)  # in place: one population-sized temporary besides p
    ramp = np.flatnonzero((populations > EIGENVALUE_FLOOR) & (populations < (1.0 + FLOOR_RAMP) * EIGENVALUE_FLOOR))
    p.flat[ramp] *= floor_ramp(populations.flat[ramp])[0]
    return np.maximum(0.0, -p.sum(axis=-1)) + 0.0


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
        raise ValueError(f"side must be 'east' or 'west', got {_shown(side, repr)}")
    return swapped.reshape(matrices.shape)


def partial_transpose(rho: DensityMatrix, side: Side) -> np.ndarray:
    """Transpose the chosen mode's indices; Hermitian, unit trace, possibly non-PSD."""
    return _transpose_mode(rho.matrix, _require_bipartite(rho.dims), side)


def trace_norm(matrices: np.ndarray) -> np.ndarray:
    """Sum of |eigenvalues| of Hermitian matrices over the last two axes, batched over leading axes.

    A view of the matrices goes to the one kernel, `_entry_first_trace_norm`, which reads the
    entries off its first two axes and the lower triangle, as eigvalsh does; matrices of side 4
    and up go through eigvalsh. A 1x1 matrix [[a]] has norm |Re a|. A 2x2 matrix [[a, b*], [b, d]]
    has eigenvalues mean +- radius with mean (a + d) / 2 and radius hypot((a - d) / 2, |b|), so its
    norm is 2 max(|mean|, radius), computed as max(|a + d|, hypot(a - d, 2 |b|)) so that no halving
    rounds a subnormal entry away.

    A 3x3 matrix A is first divided by its largest lower-triangle magnitude s (a complex
    entry counts its real and imaginary parts), so that no square or cube of an entry
    near 1e-300 underflows or of one near 1e308 overflows. With m = tr A / 3, B = A - m I,
    p = sqrt(tr B^2 / 6) and r = det B / (2 p^3), its eigenvalues are m + 2p cos(phi),
    m + 2p cos(phi - 2pi/3) and m + 2p cos(phi + 2pi/3), phi = arccos(r) / 3 (Smith, Commun.
    ACM 4, 168 (1961)), and its norm is s max(|tr A|, tr A - 2 lambda_min, 2 lambda_max - tr A),
    which is 1-Lipschitz in lambda_min and lambda_max. Near a degenerate pair arccos
    amplifies the rounding error of r (Kopp, Int. J. Mod. Phys. C 19, 523 (2008)): the two
    members of the pair err by about +-delta, delta = 2p/3 PHASE_ROUNDING / sqrt(1 - r^2).
    Those errors cancel in the norm unless the pair straddles zero, so a matrix whose pair
    lies within delta of straddling zero, with delta above PAIR_ERROR_TOL (of s), goes
    through eigvalsh, held as complex so that real input gives the bits of complex input.
    The norm is within 1e-14 s of eigvalsh's on near-degenerate, rank-one and subnormal
    matrices alike (tests/test_entanglement.py::TestTraceNorm). `check_array` names a non-finite entry,
    where the closed forms would give NaN and eigvalsh fail, and input that is not a stack of square matrices.
    """
    array = check_array("matrices", matrices, None)
    array = check_array("matrices", array, array.shape[:-2] + (max(array.shape[-2:], default=1),) * 2)
    return _entry_first_trace_norm(array.transpose((-2, -1) + tuple(range(array.ndim - 2))))


# rounding error allowed for r in `trace_norm`'s 3x3 form: twice the largest seen, 7.8 eps, on
# rotated spectra (1, e, -e), (-1, e, -e) and (0.3, 0.3 + e, -0.3) for e from 1e-1 to 1e-15
PHASE_ROUNDING = 16.0 * np.finfo(float).eps
# the pair error, relative to the largest entry, above which a pair near zero is not trusted
PAIR_ERROR_TOL = 3e-15


def _invariants_3x3(entries: np.ndarray) -> tuple[np.ndarray, ...]:
    """The scale s of 3x3 Hermitian matrices, entry (i, j) in entries[i, j], one per matrix of the flat batch,
    and tr A, m, p and r of `trace_norm`'s docstring for each matrix A divided by its s."""
    # the lower triangle: the diagonal, then entries (1, 0), (2, 0), (2, 1); a copy, so it is divided in place
    lower = entries[[0, 1, 2, 1, 2, 2], [0, 1, 2, 0, 0, 1]].reshape(6, -1)
    # u, v, w are the entries (1, 0), (2, 0), (2, 1); cross is Re(u w conj(v)). A real matrix skips
    # the imaginary terms, which add zeros to the same products when it is held as complex
    if np.iscomplexobj(lower):
        scale = np.maximum(np.abs(lower.real).max(axis=0), np.abs(lower.imag[3:]).max(axis=0))
        unit = np.where(scale > 0.0, scale, 1.0)  # a zero matrix stays zero
        a0, a1, a2, ur, vr, wr = np.divide(lower.real, unit, out=lower.real)
        ui, vi, wi = np.divide(lower.imag[3:], unit, out=lower.imag[3:])
        uu, vv, ww = ur * ur + ui * ui, vr * vr + vi * vi, wr * wr + wi * wi
        cross = ur * (wr * vr + wi * vi) + ui * (wr * vi - wi * vr)
    else:
        scale = np.abs(lower).max(axis=0)
        unit = np.where(scale > 0.0, scale, 1.0)
        a0, a1, a2, ur, vr, wr = np.divide(lower, unit, out=lower)
        uu, vv, ww = ur * ur, vr * vr, wr * wr
        cross = ur * (wr * vr)
    trace = a0 + a1 + a2
    mean = trace / 3.0
    d0, d1, d2 = a0 - mean, a1 - mean, a2 - mean
    p2 = (d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * (uu + vv + ww)) / 6.0
    p = np.sqrt(p2)
    det = d0 * d1 * d2 - d0 * ww - d1 * vv - d2 * uu + 2.0 * cross
    # where 2 p^3 is below tiny, every eigenvalue is within 2p < 1e-102 of m, whatever r reads
    r = np.clip(det / np.maximum(2.0 * p2 * p, np.finfo(float).tiny), -1.0, 1.0)
    return scale, trace, mean, p, r


def _entry_first_trace_norm(entries: np.ndarray) -> np.ndarray:
    """`trace_norm` of the matrices whose entry (i, j) is entries[i, j], shape (side, side) + batch. A 3x3
    matrix's invariants come from `_invariants_3x3`, whose intermediates die when it returns, so they are
    never held beside the spectrum's."""
    side = len(entries)
    if side == 1:
        return np.abs(entries[0, 0].real)
    if side == 2:
        a, d = entries[0, 0].real, entries[1, 1].real
        return np.maximum(np.abs(a + d), np.hypot(a - d, 2.0 * np.abs(entries[1, 0])))
    if side != 3:
        return np.abs(np.linalg.eigvalsh(np.moveaxis(entries, (0, 1), (-2, -1)))).sum(axis=-1)
    scale, trace, mean, p, r = _invariants_3x3(entries)
    phi = np.arccos(r) / 3.0
    top = mean + 2.0 * p * np.cos(phi)
    bottom = mean + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    middle = trace - top - bottom
    norm = np.maximum(np.abs(trace), np.maximum(trace - 2.0 * bottom, 2.0 * top - trace))
    # arccos moves by at most sqrt(2 PHASE_ROUNDING) for an error of PHASE_ROUNDING next to +-1
    slope = np.maximum(np.sqrt(1.0 - r * r), math.sqrt(PHASE_ROUNDING / 2.0))
    pair_error = (2.0 * PHASE_ROUNDING / 3.0) * p / slope
    # the pair that nears degeneracy: bottom and middle where r >= 0 (phi <= pi/6), else middle and top
    other = np.where(r >= 0.0, bottom, top)
    uncertain = pair_error > PAIR_ERROR_TOL
    uncertain &= np.minimum(other, middle) < pair_error
    uncertain &= np.maximum(other, middle) > -pair_error
    norm *= scale
    if uncertain.any():
        matrices = np.moveaxis(entries, (0, 1), (-2, -1)).reshape(-1, 3, 3)
        norm[uncertain] = np.abs(np.linalg.eigvalsh(matrices[uncertain].astype(complex))).sum(axis=-1)
    return norm.reshape(entries.shape[2:])


def log_negativity_bits(matrices: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """log2 of the trace norm of the partial transpose, clamped at zero, batched over leading axes.

    `matrices` has shape (..., d_east * d_west, d_east * d_west) with the flat
    index convention of DensityMatrix; one `trace_norm` covers the whole batch, in
    closed form when the side is 1 to 3 and by one eigvalsh otherwise. Either
    side's partial transpose serves: the west one is the transpose of the east one.
    `check_array` checks the input first, as the partial transpose needs its shape.
    """
    dims = _require_bipartite(dims)
    array = check_array("matrices", matrices, None)
    array = check_array("matrices", array, array.shape[:-2] + (math.prod(dims),) * 2)
    return negativity_bits(trace_norm(_transpose_mode(array, dims, "east")))


def negativity_bits(trace_norm: np.ndarray) -> np.ndarray:
    """Logarithmic negativity from the trace norm of a partial transpose: log2, clamped at zero."""
    return np.maximum(0.0, np.log2(trace_norm))


def log_negativity(rho: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose, clamped at zero."""
    return float(log_negativity_bits(rho.matrix, rho.dims))
