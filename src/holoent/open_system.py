"""Photon loss for states leaving the chip through lossy waveguides.

Both continuation waveguides lose single photons at the same rate and there is
no Hamiltonian term: free propagation only imprints a local phase that neither
the negativity nor the populations see, so time is measured in units of 1/gamma
and the loss is pure amplitude damping on each mode.

That channel has a closed form (Nielsen & Chuang, section 8.3.5): after time t, with
eta = exp(-gamma t) and x = 1 - eta = -expm1(-gamma t), a mode in |n> loses l photons
with amplitude sqrt(C(n, l) eta^(n-l) x^l). Collecting the east and west losses l, l'
by q = l + l', the state is rho(t)[i, j] = v_i v_j sum_q x^q C_q[i, j], with
v_i = eta^(N_i / 2) for the photon number N_i = a + b of basis state i = (a, b) and

    C_q[(a, b), (c, e)] = sum over l + l' = q of
        sqrt(C(a+l, l) C(c+l, l) C(b+l', l') C(e+l', l')) rho0[(a+l, b+l'), (c+l, e+l')].

C_q depends on rho0 alone, so `evolve` builds the table once, and a sample costs a
polynomial of degree d_E + d_W - 2 in x and one scaling. There is no integrator and
no step-size error; the Lindblad generator and the Kraus sum this form replaces live
with the tests as their references.

Loss removes the same photons from the ket and the bra, so it keeps the coherence
orders a - c and b - e of every element |a,b><c,e|: C_q[(a, b), (c, e)] is zero unless
rho0 has a nonzero element with the same two orders. The east partial transpose, whose
trace norm gives the negativity, moves |a,b><c,e| to |c,b><a,e| and so keeps this
sparsity. For the reference states it is block diagonal: three 2x2 and three 1x1 blocks
for the holonomic state, blocks of 3, 2, 2, 1 and 1 for the Bell qutrit. So `evolve`
transposes the table once, splits its indices into the connected components of the
support of the transposed C_q, and sums the blocks' trace norms (`entanglement.trace_norm`).
An entry outside every block is zero at every time, so the eigenvalues of the blocks are
those of the whole partial transpose. The norms of blocks up to side 3 are closed forms: |a|
for a 1x1 block [[a]], max(|a + d|, hypot(a - d, 2|b|)) for a 2x2 block [[a, b*], [b, d]], and
the trigonometric form of `trace_norm` for a 3x3 block such as the Bell qutrit's, which sends
only a block whose near-degenerate eigenvalue pair straddles zero to eigvalsh (no Bell-qutrit
sample up to gamma t = 10 does, real or phase-rotated); only blocks of side 4 and more always
go through eigvalsh. So for both reference states `evolve` makes no LAPACK call after its
positivity check.

The entries of every block are laid out side by side in one flat table of shape (Q, E),
E = 15 for the holonomic state and 19 for the Bell qutrit, each block size's entries in one
stretch. One sampler evaluates it: one Horner pass per chunk of sample times over all E
entries, then one scaling of entry (i, j) by eta^((N_i + N_j) / 2). The partial transpose
keeps N_i + N_j, so a block holds the same bits as the matching entries of the transposed
rho(t). Each block size's stretch is reshaped into its blocks for `trace_norm`, and rho(t)'s
diagonal, which the partial transpose keeps, is read from the flat samples by one `take`.
The table is float64 when rho0 is real, as both reference states are, and complex
otherwise. A real entry goes through the same multiplications and additions as the real
part of the complex one, whose imaginary part is zero, so the samples are the same
numbers and their closed-form norms the same bits; only the eigvalsh of a block of side 4 or
more runs a different LAPACK routine.

Positivity is checked once, on rho0. Write rho0 = P - N with P, N >= 0: the
channel Phi is completely positive, so Phi(rho0) >= -Phi(N) and, Phi being
trace preserving, every eigenvalue of rho(t) is >= -tr N, the summed negative
eigenvalues of rho0. A rho0 that passes the check cannot fail it later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import DensityMatrix, _require_bipartite, _transpose_mode, negativity_bits, trace_norm
# partial_transpose is re-exported: benchmark tracing wraps it through this binding
from .entanglement import partial_transpose  # noqa: F401
from .fock import MEMORY_BUDGET_BYTES, check_finite, check_integer

STEP_SIZE_GUARD = 0.01
# lower bound on the summed negative eigenvalues of rho0, which bound those of every rho(t)
POSITIVITY_ABORT = -1e-6
# sample times evaluated per batch; bounds the working memory of evolve, which holds per
# sample the blocks of the partial transpose: 19 entries for the Bell qutrit, 15 for the
# holonomic state, against 81 for the whole 9x9 matrix
CHUNK_SAMPLES = 256
# upper bound on steps: the memory budget at 1024 bytes per sample. One `holoent loss`
# run holds four float64 arrays for each of its two trajectories and one more column,
# and renders its table a block of rows at a time; its tracemalloc peak grows by about
# 80 bytes per sample (79.8 between 16 000 and 65 535 steps), so the bound leaves ample headroom
MAX_LOSS_STEPS = MEMORY_BUDGET_BYTES // 1024 - 1


class IntegrationError(RuntimeError):
    """A numerical method missed its accuracy or physicality tolerance."""


@dataclass(frozen=True)
class LossConfig:
    """Sampling of one loss trajectory; t_max is gamma*t, the duration in units of 1/gamma.

    `steps` is the number of sampling intervals: the trajectory is sampled at
    steps + 1 equally spaced times from 0 to t_max, at most STEP_SIZE_GUARD apart.
    The rate itself is not a setting: with equal rates and no Hamiltonian it only
    sets the unit of time. The mode dimensions come from the initial state.
    """

    t_max: float = 10.0
    steps: int = 1000

    def __post_init__(self) -> None:
        check_finite("t_max", self.t_max)
        if self.t_max <= 0:
            raise ValueError(f"t_max must be positive, got {self.t_max}")
        check_integer("steps", self.steps, 1, MAX_LOSS_STEPS)
        if self.t_max / self.steps > STEP_SIZE_GUARD + 1e-15:
            raise ValueError(
                f"sampling-density guard violated: gamma*dt = {self.t_max / self.steps:.4g} "
                f"exceeds {STEP_SIZE_GUARD}; increase steps"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along one loss evolution; times are gamma*t. `single_photon_population`
    is the mean photon number over its initial value, and `trace_error` is |tr rho(t) - 1|."""

    times: np.ndarray
    negativity: np.ndarray
    single_photon_population: np.ndarray
    trace_error: np.ndarray


def _damping_table(rho0: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients C_q of the module docstring, shape (d_E + d_W - 1,) + rho0.matrix.shape,
    and the photon number N_i of each basis state. The table is float64 when rho0 is real."""
    d_east, d_west = _require_bipartite(rho0.dims)
    matrix = rho0.matrix if rho0.matrix.imag.any() else rho0.matrix.real
    r = matrix.reshape(d_east, d_west, d_east, d_west)
    table = np.zeros((d_east + d_west - 1,) + r.shape, dtype=r.dtype)
    for l in range(d_east):
        east = np.sqrt([math.comb(n + l, l) for n in range(d_east - l)])
        for lw in range(d_west):
            west = np.sqrt([math.comb(n + lw, lw) for n in range(d_west - lw)])
            weight = np.multiply.outer(east, west)
            table[l + lw, : d_east - l, : d_west - lw, : d_east - l, : d_west - lw] += (
                np.multiply.outer(weight, weight) * r[l:, lw:, l:, lw:]
            )
    photon_number = np.add.outer(np.arange(d_east), np.arange(d_west)).ravel()
    return table.reshape((len(table),) + rho0.matrix.shape), photon_number


def _coherence_blocks(
    table: np.ndarray, photon_number: np.ndarray, dims: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, slice]], np.ndarray]:
    """The east partial transpose of a `_damping_table` as one flat table over the entries of
    the connected components of its support.

    Returns the flat table, shape (len(table), E); the photon-number sum N_i + N_j of each
    entry, shape (E,); for each block size s, in increasing order, the flat indices of its nb
    blocks, shape (nb, s), and the stretch of the flat table that holds those blocks row-major
    as (nb, s, s); and the position in the flat table of each diagonal entry, in basis order.
    """
    pt = _transpose_mode(table, dims, "east")
    side = pt.shape[-1]
    # reachability by repeated squaring: after k squarings, paths of up to 2^k links
    reach = (pt != 0).any(axis=0) | np.eye(side, dtype=bool)
    while not np.array_equal(closure := reach @ reach, reach):
        reach = closure
    roots = np.flatnonzero(reach.argmax(axis=1) == np.arange(side))  # each component's lowest index
    sizes = reach[roots].sum(axis=1)
    groups, entries, start = [], [], 0
    for size in sorted(set(sizes.tolist())):  # not np.unique: it imports numpy.ma, 12 ms
        index = np.nonzero(reach[roots[sizes == size]])[1].reshape(-1, size)
        entries.append((index[:, :, None] * side + index[:, None, :]).ravel())
        groups.append((index, slice(start, start + len(entries[-1]))))
        start += len(entries[-1])
    entries = np.concatenate(entries)
    position = np.zeros(side * side, dtype=np.intp)
    position[entries] = np.arange(len(entries))
    pair_photons = np.add.outer(photon_number, photon_number).ravel()[entries]
    # every index lies in its own component, so every diagonal entry is in the flat table
    return pt.reshape(len(pt), -1)[:, entries], pair_photons, groups, position[:: side + 1]


def _sample(table: np.ndarray, pair_photons: np.ndarray, gamma_t: np.ndarray) -> np.ndarray:
    """The table's entries of rho(t) at each gamma*t, shape gamma_t.shape + table.shape[1:], in its dtype.

    `table` has shape (Q,) + entries, the flat table of `_coherence_blocks` or a whole
    `_damping_table`, and `pair_photons` holds N_i + N_j for each entry (i, j). The polynomial
    in x runs by Horner's rule, one elementwise pass per degree, so a sample does not depend
    on the other times in its batch (a BLAS product's rounding can depend on the batch
    length). Entry (i, j) is then scaled once, by exp(-gamma t (N_i + N_j) / 2).
    """
    gamma_t = np.asarray(gamma_t, dtype=float)
    x = -np.expm1(-gamma_t).reshape(gamma_t.shape + (1,) * (table.ndim - 1))
    rho = np.empty(gamma_t.shape + table.shape[1:], dtype=table.dtype)
    rho[...] = table[-1]
    for coefficient in table[-2::-1]:
        rho *= x
        rho += coefficient
    scale = np.multiply.outer(gamma_t, pair_photons)
    scale *= -0.5
    rho *= np.exp(scale, out=scale)
    return rho


def bell_qutrit_state() -> DensityMatrix:
    """Equal superposition (|0,0> + |1,1> + |2,2>)/sqrt(3) on the 3x3 occupation space."""
    psi = np.zeros(9, dtype=complex)
    for k in range(3):
        psi[k * 3 + k] = 1.0 / math.sqrt(3.0)
    return DensityMatrix(np.outer(psi, psi.conj()), (3, 3))


def evolve(rho0: DensityMatrix, cfg: LossConfig) -> Trajectory:
    """Sample the exact loss channel at cfg.steps + 1 equally spaced gamma*t up to t_max.

    rho0 may be any two-mode density matrix; its dims set the occupation levels
    of each mode. Records the logarithmic negativity, the total photon number
    normalized to its initial value, and the trace error. The coefficient table
    is built and laid out as the flat table of its partial transpose's blocks once;
    that table is sampled CHUNK_SAMPLES times at a time, so the working memory does
    not grow with `steps`.
    Raises IntegrationError before sampling if the negative eigenvalues of rho0
    sum below POSITIVITY_ABORT (or to NaN); see the module docstring for why
    this one check bounds every sample.
    """
    table, photon_number = _damping_table(rho0)
    negative_mass = np.minimum(np.linalg.eigvalsh(rho0.matrix), 0.0).sum()
    if not negative_mass >= POSITIVITY_ABORT:
        raise IntegrationError(
            f"the initial state is not positive semidefinite: its negative eigenvalues sum to "
            f"{negative_mass:.3e}, below {POSITIVITY_ABORT}"
        )
    flat, pair_photons, groups, diagonal_entries = _coherence_blocks(table, photon_number, rho0.dims)
    initial_photons = float(photon_number @ np.diagonal(rho0.matrix).real)

    dt = cfg.t_max / cfg.steps
    negativity = np.empty(cfg.steps + 1)
    population = np.empty(cfg.steps + 1)
    trace_error = np.empty(cfg.steps + 1)

    for first in range(0, cfg.steps + 1, CHUNK_SAMPLES):
        stop = min(first + CHUNK_SAMPLES, cfg.steps + 1)
        chunk = slice(first, stop)
        gamma_t = np.arange(first, stop) * dt
        samples = _sample(flat, pair_photons, gamma_t)
        norm = np.zeros(stop - first)
        for index, entries in groups:
            blocks = samples[:, entries].reshape((stop - first,) + index.shape + index.shape[-1:])
            norm += trace_norm(blocks).sum(axis=-1)
        negativity[chunk] = negativity_bits(norm)
        # a partial transpose keeps the diagonal, so the blocks' diagonals are rho(t)'s
        diagonal = samples.take(diagonal_entries, axis=-1).real
        if initial_photons > 1e-12:
            population[chunk] = diagonal @ photon_number / initial_photons
        else:
            population[chunk] = 0.0
        trace_error[chunk] = np.abs(diagonal.sum(axis=-1) - 1.0)

    # the time grid is built last and in place, so the chunk loop's peak memory grows only by
    # the three arrays it fills and no integer grid is ever held
    times = np.arange(cfg.steps + 1, dtype=float)
    times *= dt
    return Trajectory(times, negativity, population, trace_error)
