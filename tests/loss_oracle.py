"""Reference methods for the loss tests.

The independent ones are the direct forms the library's coefficient-table loss
channel replaced: the amplitude-damping Kraus operators `damping_kraus`, summed
one Kronecker product at a time by the tests, and a fixed-step RK4 integration
of the Lindblad generator `lindblad_rhs`, with the state re-Hermitized after
every step, built from truncated ladder operators. Tests compare the library
against them. `damped_states` is the library's own sampler run over the whole
coefficient table rather than its coherence blocks: the tests check it against
the independent references, and `evolve`'s block samples against it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from holoent import open_system
from holoent.entanglement import DensityMatrix, _require_bipartite


def damped_states(rho0: DensityMatrix, gamma_t: np.ndarray) -> np.ndarray:
    """Exact rho(t) under equal single-photon loss in both modes, shape gamma_t.shape + rho0.matrix.shape;
    float64 when rho0 is real, complex otherwise."""
    table, photon_number = open_system._damping_table(rho0)
    gamma_t = np.asarray(gamma_t, dtype=float)
    rows = open_system._sample(table.reshape(len(table), -1), np.add.outer(photon_number, photon_number).ravel(),
                               gamma_t.ravel())
    return rows.T.reshape(gamma_t.shape + rho0.matrix.shape)


def lowering_operator(cutoff: int) -> np.ndarray:
    """Truncated bosonic lowering operator on occupations 0..cutoff: entry (n-1, n) = sqrt(n)."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1).astype(complex)


def identity_operator(cutoff: int) -> np.ndarray:
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    return np.eye(cutoff + 1, dtype=complex)


def two_mode_embed(op_east: np.ndarray, op_west: np.ndarray) -> np.ndarray:
    """Kronecker product over the east-major two-mode basis.

    Index convention: flat index = n_east * (cutoff_west + 1) + n_west.
    """
    return np.kron(op_east, op_west)


def damping_kraus(eta: np.ndarray, levels: int) -> np.ndarray:
    """Amplitude-damping Kraus operators on `levels` occupation levels, batched over eta.

    Shape eta.shape + (levels, levels, levels), indexed [..., l, out, in]:
    A_l = sum_n sqrt(C(n, l) eta^(n-l) (1-eta)^l) |n-l><n|, with eta the
    single-photon survival probability.
    """
    eta = np.asarray(eta, dtype=float)
    kraus = np.zeros(eta.shape + (levels, levels, levels))
    for l in range(levels):
        for n in range(l, levels):
            kraus[..., l, n - l, n] = np.sqrt(math.comb(n, l) * eta ** (n - l) * (1.0 - eta) ** l)
    return kraus


def lindblad_rhs(rho: DensityMatrix, gamma: float) -> np.ndarray:
    """Time derivative under identical single-photon loss in each mode."""
    d_east, d_west = _require_bipartite(rho.dims)
    jump_ops = (
        two_mode_embed(lowering_operator(d_east - 1), identity_operator(d_west - 1)),
        two_mode_embed(identity_operator(d_east - 1), lowering_operator(d_west - 1)),
    )
    drho = np.zeros_like(rho.matrix)
    for a in jump_ops:
        ad = a.conj().T
        n_op = ad @ a
        drho += a @ rho.matrix @ ad - 0.5 * (n_op @ rho.matrix + rho.matrix @ n_op)
    return gamma * drho


def rk4_states(rho0: DensityMatrix, gamma_t_max: float, steps: int) -> np.ndarray:
    """rho at the steps + 1 equally spaced gamma*t from 0 to gamma_t_max, shape (steps + 1, D, D).

    Time counts in units of 1/gamma, so the generator is `lindblad_rhs` at gamma = 1.
    """

    def rhs(m: np.ndarray) -> np.ndarray:
        return lindblad_rhs(DensityMatrix(m, rho0.dims), 1.0)

    dt = gamma_t_max / steps
    rho = rho0.matrix.copy()
    states = np.empty((steps + 1,) + rho.shape, dtype=complex)
    states[0] = rho
    for k in range(1, steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        states[k] = rho
    return states
