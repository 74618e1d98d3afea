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

C_q depends on rho0 alone, so `plan_loss` builds it once into a `LossPlan` that any number of
samplings reuse, and a sample costs a polynomial of degree d_E + d_W - 2 in x and one
scaling. There is no integrator and no step-size error; the Lindblad generator and the Kraus
sum this form replaces live with the tests as their references.

Loss removes the same photons from the ket and the bra, so it keeps the coherence
orders a - c and b - e of every element |a,b><c,e|: C_q[(a, b), (c, e)] is zero unless
rho0 has a nonzero element with the same two orders. The east partial transpose, whose
trace norm gives the negativity, moves |a,b><c,e| to |c,b><a,e| and so keeps this
sparsity. For the reference states it is block diagonal: three 2x2 and three 1x1 blocks
for the holonomic state, blocks of 3, 2, 2, 1 and 1 for the Bell qutrit. So `plan_loss`
transposes the table once, splits its indices into the connected components of the
support of the transposed C_q, and sums the blocks' trace norms (`entanglement.trace_norm`).
An entry outside every block is zero at every time, so the eigenvalues of the blocks are
those of the whole partial transpose. The norms of blocks up to side 3 are closed forms: |a|
for a 1x1 block [[a]], max(|a + d|, hypot(a - d, 2|b|)) for a 2x2 block [[a, b*], [b, d]], and
the trigonometric form of `trace_norm` for a 3x3 block such as the Bell qutrit's, which sends
only a block whose near-degenerate eigenvalue pair straddles zero to eigvalsh (no Bell-qutrit
sample up to gamma t = 10 does, real or phase-rotated); only blocks of side 4 and more always
go through eigvalsh. So for both reference states `evolve` makes no LAPACK call after the
plan's positivity check, and none at all on a plan built before.

The entries of every block are laid out side by side in one flat table of shape (Q, E),
E = 15 for the holonomic state and 19 for the Bell qutrit, each block size's entries in one
stretch. One sampler evaluates it: one Horner pass per chunk of sample times over all E
entries, then one scaling of entry (i, j) by eta^((N_i + N_j) / 2). The partial transpose
keeps N_i + N_j, so a block holds the same bits as the matching entries of the transposed
rho(t). The samples are held entry-first, a row per entry, each block size's stretch entry-major, a view
(s, s, nb, samples) for `trace_norm`'s kernel; rho(t)'s diagonal, kept by the partial transpose, is one `take`.
The table is float64 when rho0 is real, as both reference states are, and complex
otherwise. A real entry goes through the same multiplications and additions as the real
part of the complex one, whose imaginary part is zero, so the samples are the same
numbers and their closed-form norms the same bits; only the eigvalsh of a block of side 4 or
more runs a different LAPACK routine.

Positivity is checked once, on rho0, when it is planned. Write rho0 = P - N with P, N >= 0: the
channel Phi is completely positive, so Phi(rho0) >= -Phi(N) and, Phi being
trace preserving, every eigenvalue of rho(t) is >= -tr N, the summed negative
eigenvalues of rho0. A rho0 that passes the check cannot fail it later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import DensityMatrix, _entry_first_trace_norm, _require_bipartite, _transpose_mode, negativity_bits
# partial_transpose is re-exported: benchmark tracing wraps it through this binding
from .entanglement import partial_transpose  # noqa: F401
from .fock import MEMORY_BUDGET_BYTES, check_integer, check_positive, check_tolerance

STEP_SIZE_GUARD = 0.01
# lower bound on the summed negative eigenvalues of rho0, which bound those of every rho(t)
POSITIVITY_ABORT = -1e-6
# sample times evaluated per batch; bounds the working memory of evolve, which holds per
# sample the blocks of the partial transpose: 19 entries for the Bell qutrit, 15 for the
# holonomic state, against 81 for the whole 9x9 matrix, each entry a row of samples. 1001
# samples take two passes. On the Bell qutrit at 2 x 512 samples, evolve's tracemalloc peak is
# about 211 000 bytes under numpy 2.4.6, 80 % of the 256 KiB its test allows; one pass would not
# fit, as the samples and their scaling alone take 304 bytes per sample
CHUNK_SAMPLES = 512
HORNER_BUFSIZE = 512  # ufunc buffer size, in elements, of `_sample`'s Horner loop (numpy's default is 8192)
# upper bound on steps: the memory budget at 1024 bytes per sample. One `holoent loss`
# run holds four float64 arrays for each of its two trajectories and one more column,
# and renders its table a block of rows at a time; its tracemalloc peak grows by about
# 80 bytes per sample (79.8 between 16 000 and 65 535 steps at CHUNK_SAMPLES = 512), so the
# bound leaves ample headroom
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
        check_positive("t_max", self.t_max)
        check_integer("steps", self.steps, 1, MAX_LOSS_STEPS)
        check_tolerance("sampling step gamma*dt", self.t_max / self.steps, STEP_SIZE_GUARD + 1e-15)


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
) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, slice], ...], np.ndarray]:
    """The east partial transpose of a `_damping_table` as one flat table over the entries of
    the connected components of its support.

    Returns the flat table, shape (len(table), E); the photon-number sum N_i + N_j of each
    entry, shape (E,); for each block size s, in increasing order, the flat indices of its nb
    blocks, shape (nb, s), and the stretch of the flat table that holds them as (s, s, nb), entry
    (i, j) of block b at [i, j, b]; and the position in the flat table of each diagonal entry, in basis order.
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
        entries.append((index[:, :, None] * side + index[:, None, :]).transpose(1, 2, 0).ravel())
        groups.append((index, slice(start, start + len(entries[-1]))))
        start += len(entries[-1])
    entries = np.concatenate(entries)
    position = np.zeros(side * side, dtype=np.intp)
    position[entries] = np.arange(len(entries))
    pair_photons = np.add.outer(photon_number, photon_number).ravel()[entries]
    # every index lies in its own component, so every diagonal entry is in the flat table
    return pt.reshape(len(pt), -1)[:, entries], pair_photons, tuple(groups), position[:: side + 1]


def _sample(table: np.ndarray, pair_photons: np.ndarray, gamma_t: np.ndarray) -> np.ndarray:
    """The table's entries of rho(t) at each gamma*t, shape (E, len(gamma_t)), one contiguous row per entry.

    `table` is a flat table of shape (Q, E), that of `_coherence_blocks` or a flattened
    `_damping_table`, `pair_photons` holds N_i + N_j for each entry (i, j), and `gamma_t` is 1-D.
    The polynomial in x runs by Horner's rule, one elementwise pass per degree along the rows, so a
    sample does not depend on the other times in its batch (a BLAS product's rounding can depend
    on the batch length). Entry (i, j) is then scaled once, by exp(-gamma t (N_i + N_j) / 2).

    Under numpy 2.4.6 a broadcast operation at the default buffer size allocates an iterator buffer
    of up to 64 KiB per operand beside its result. So the products gamma t (N_i + N_j) come from einsum
    (np.multiply.outer took the Bell qutrit's evolve peak from 211 000 to 328 000 bytes), and the Horner
    loop runs at HORNER_BUFSIZE, where a real table needs no buffer and the loop takes 2/3 of the time.
    """
    x = -np.expm1(-gamma_t)
    rho = np.broadcast_to(table[-1, :, None], table.shape[1:] + gamma_t.shape).copy()
    bufsize = np.setbufsize(HORNER_BUFSIZE)
    try:
        for coefficient in table[-2::-1, :, None]:
            rho *= x
            rho += coefficient
    finally:
        np.setbufsize(bufsize)
    scale = np.einsum("j,i->ji", pair_photons.astype(float), gamma_t)
    scale *= -0.5
    rho *= np.exp(scale, out=scale)
    return rho


def bell_qutrit_state() -> DensityMatrix:
    """Equal superposition (|0,0> + |1,1> + |2,2>)/sqrt(3) on the 3x3 occupation space."""
    psi = np.zeros(9, dtype=complex)
    for k in range(3):
        psi[k * 3 + k] = 1.0 / math.sqrt(3.0)
    return DensityMatrix(np.outer(psi, psi.conj()), (3, 3))


@dataclass(frozen=True)
class LossPlan:
    """What `evolve` needs that depends on rho0 alone, built by `plan_loss` for any `LossConfig`: the
    flat table, pair photon numbers, block groups and diagonal positions of `_coherence_blocks`,
    N_i of each basis state and the mean photon number of rho0. Its arrays are read-only."""

    flat: np.ndarray
    pair_photons: np.ndarray
    groups: tuple[tuple[np.ndarray, slice], ...]
    diagonal_entries: np.ndarray
    photon_number: np.ndarray
    initial_photons: float


def plan_loss(rho0: DensityMatrix) -> LossPlan:
    """The `LossPlan` of rho0, any two-mode density matrix; its dims set the occupation levels of
    each mode. Raises IntegrationError if the negative eigenvalues of rho0 sum below
    POSITIVITY_ABORT (or to NaN); see the module docstring for why this one check bounds every
    sample."""
    table, photon_number = _damping_table(rho0)
    negative_mass = -np.minimum(np.linalg.eigvalsh(rho0.matrix), 0.0).sum()
    check_tolerance("negative eigenvalue mass of the initial state", negative_mass, -POSITIVITY_ABORT,
                    IntegrationError)
    plan = LossPlan(*_coherence_blocks(table, photon_number, rho0.dims), photon_number,
                    float(photon_number @ np.diagonal(rho0.matrix).real))
    for array in (plan.flat, plan.pair_photons, plan.diagonal_entries, photon_number,
                  *(index for index, _ in plan.groups)):
        array.flags.writeable = False
    return plan


def evolve(rho0: DensityMatrix | LossPlan, cfg: LossConfig) -> Trajectory:
    """Sample the exact loss channel at cfg.steps + 1 equally spaced gamma*t up to t_max.

    rho0 is a `LossPlan`, which holds what depends on rho0 alone, or a two-mode density matrix,
    which `plan_loss` plans first (its positivity check may raise IntegrationError). Records the
    logarithmic negativity, the total photon number normalized to its initial value, and the
    trace error. The plan's flat table is sampled CHUNK_SAMPLES times at a time, so the working
    memory does not grow with `steps`.
    """
    plan = rho0 if isinstance(rho0, LossPlan) else plan_loss(rho0)

    dt = cfg.t_max / cfg.steps
    negativity = np.empty(cfg.steps + 1)
    population = np.empty(cfg.steps + 1)
    trace_error = np.empty(cfg.steps + 1)

    for first in range(0, cfg.steps + 1, CHUNK_SAMPLES):
        stop = min(first + CHUNK_SAMPLES, cfg.steps + 1)
        chunk = slice(first, stop)
        gamma_t = np.arange(first, stop) * dt
        rows = _sample(plan.flat, plan.pair_photons, gamma_t)  # (E, samples), one row per entry
        norm = np.zeros(stop - first)
        for index, entries in plan.groups:  # nb blocks of side s, their rows a view (s, s, nb, samples)
            nb, side = index.shape
            blocks = rows[entries].reshape(side, side, nb, stop - first)
            norm += _entry_first_trace_norm(blocks).sum(axis=0)
        negativity[chunk] = negativity_bits(norm)
        # a partial transpose keeps the diagonal, so the blocks' diagonals are rho(t)'s
        diagonal = rows.take(plan.diagonal_entries, axis=0).real
        if plan.initial_photons > 1e-12:
            population[chunk] = plan.photon_number @ diagonal / plan.initial_photons
        else:
            population[chunk] = 0.0
        trace_error[chunk] = np.abs(diagonal.sum(axis=0) - 1.0)
        del rows, blocks, norm, diagonal  # so the next chunk is sampled beside none of this one

    # the time grid is built last and in place, so the chunk loop's peak memory grows only by
    # the three arrays it fills and no integer grid is ever held
    times = np.arange(cfg.steps + 1, dtype=float)
    times *= dt
    return Trajectory(times, negativity, population, trace_error)
