"""Independent reference methods for the coupled-mode propagation tests.

These are the direct forms the library's closed forms replaced: the dense
Hamiltonian, a fixed-step RK4 integrator, an eigendecomposition matrix
exponential, the K-mode monomial-dictionary lift and the projection of the full
four-mode lift onto the dark facet states. Tests compare the library against them.
"""

from __future__ import annotations

import math

import numpy as np

from holoent.adiabatic import MODE_AUX, MODE_CENTRAL, MODE_EAST, MODE_WEST, PulseSchedule
from holoent.fock import occupation_basis


def star_hamiltonian(b: np.ndarray) -> np.ndarray:
    """Hub Hamiltonian |c><b| + |b><c| for a real coupling vector b with b[central] = 0."""
    h = np.zeros((4, 4), dtype=complex)
    h[MODE_CENTRAL, :] = b
    h[:, MODE_CENTRAL] = b
    return h


def hamiltonian_at(schedule: PulseSchedule, z: float) -> np.ndarray:
    """Single-photon coupled-mode Hamiltonian at position z (zero diagonal)."""
    b = np.zeros(4)
    for mode, profile in (
        (MODE_EAST, schedule.east),
        (MODE_WEST, schedule.west),
        (MODE_AUX, schedule.aux),
    ):
        b[mode] = float(profile.value(z))
    return star_hamiltonian(b)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) of a Hermitian matrix through its eigendecomposition."""
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def rk4_transfer(schedule: PulseSchedule, steps: int) -> np.ndarray:
    """Transfer matrix of i dpsi/dz = H(z) psi by `steps` fixed RK4 steps."""
    z_start, z_end = schedule.z_span
    dz = (z_end - z_start) / steps
    u = np.eye(4, dtype=complex)
    for k in range(steps):
        z = z_start + k * dz
        g0 = -1j * hamiltonian_at(schedule, z)
        g_mid = -1j * hamiltonian_at(schedule, z + 0.5 * dz)
        g1 = -1j * hamiltonian_at(schedule, z + dz)
        k1 = g0 @ u
        k2 = g_mid @ (u + (0.5 * dz) * k1)
        k3 = g_mid @ (u + (0.5 * dz) * k2)
        k4 = g1 @ (u + dz * k3)
        u = u + (dz / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return u


def monomial_lift(u: np.ndarray, photon_count: int) -> np.ndarray:
    """Lift a K-mode single-particle matrix to the `photon_count`-photon sector.

    Each input occupation state is expanded as a product of transformed
    creation operators, (sum_j u[j,k] d_j^dag)^{n_k} acting on vacuum; the
    resulting polynomial coefficients, with the sqrt(n!) normalizations, are
    the matrix elements over occupation_basis(photon_count, K).
    """
    u = np.asarray(u, dtype=complex)
    modes = u.shape[0]
    basis = occupation_basis(photon_count, modes)
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)
    lifted = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis):
        poly: dict[tuple[int, ...], complex] = {(0,) * modes: 1.0 + 0.0j}
        for k, n_k in enumerate(occ):
            for _ in range(n_k):
                grown: dict[tuple[int, ...], complex] = {}
                for mono, coeff in poly.items():
                    for j in range(modes):
                        w = u[j, k]
                        if w == 0:
                            continue
                        key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                        grown[key] = grown.get(key, 0.0j) + coeff * w
                poly = grown
        in_norm = math.prod(math.factorial(n) for n in occ)
        for mono, coeff in poly.items():
            out_norm = math.prod(math.factorial(m) for m in mono)
            lifted[index[mono], col] = coeff * math.sqrt(out_norm / in_norm)
    return lifted


def four_mode_dark_block(transfer: np.ndarray, photon_count: int) -> tuple[np.ndarray, float]:
    """Dark facet block and leakage from the full four-mode lift of `transfer`.

    The lift is projected onto the occupations with no photon in the central
    or aux mode, ordered by descending east occupation.
    """
    lifted = monomial_lift(transfer, photon_count)
    dark = [
        i
        for i, occ in enumerate(occupation_basis(photon_count, 4))
        if occ[MODE_CENTRAL] == 0 and occ[MODE_AUX] == 0
    ]
    block = lifted[np.ix_(dark, dark)]
    smallest = np.linalg.svd(block, compute_uv=False)[-1]
    return block, max(0.0, 1.0 - float(smallest) ** 2)
