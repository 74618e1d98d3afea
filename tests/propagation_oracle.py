"""Independent reference methods for the coupled-mode propagation tests.

These are the direct forms the library's closed forms replaced: the dense
Hamiltonian, a fixed-step RK4 integrator, an eigendecomposition matrix
exponential, the CF4 scheme on complex 4x4 star exponentials, the K-mode
monomial-dictionary lift and the projection of the full four-mode lift onto the
dark facet states. Tests compare the library against them.
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


def hub_couplings(schedule: PulseSchedule, zs) -> np.ndarray:
    """Hub coupling vectors b(z) = (Omega_E, 0, Omega_W, Omega_A), shape (4,) + zs.shape."""
    zs = np.asarray(zs, dtype=float)
    b = np.zeros((4,) + zs.shape)
    for mode, profile in (
        (MODE_EAST, schedule.east),
        (MODE_WEST, schedule.west),
        (MODE_AUX, schedule.aux),
    ):
        b[mode] = profile.value(zs)
    return b


def hamiltonian_at(schedule: PulseSchedule, z: float) -> np.ndarray:
    """Single-photon coupled-mode Hamiltonian at position z (zero diagonal)."""
    return star_hamiltonian(hub_couplings(schedule, z))


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


def star_exponentials(b: np.ndarray, h: float) -> np.ndarray:
    """exp(-iHh) for the star Hamiltonian H = |c><b| + |b><c|, shape (4, 4) + b.shape[1:].

    Batched over the trailing axes of b, which has shape (4, ...). With c the hub
    and b real and orthogonal to it, H acts only on span{c, b^}, where it is |b|
    times a Pauli-x, so
    exp(-iHh) = I + (cos|b|h - 1)(|c><c| + |b^><b^|) - i sin|b|h (|c><b^| + |b^><c|).
    """
    norm = np.sqrt((b * b).sum(0))
    bhat = b / np.where(norm > 0, norm, 1.0)
    cos_m1 = np.cos(norm * h) - 1.0
    minus_i_sin = -1j * np.sin(norm * h)
    out = (cos_m1 * bhat[:, None] * bhat[None, :]).astype(complex)
    out[MODE_CENTRAL, MODE_CENTRAL] += cos_m1
    out[MODE_CENTRAL] += minus_i_sin * bhat
    out[:, MODE_CENTRAL] += minus_i_sin * bhat
    for i in range(4):
        out[i, i] += 1.0
    return out


def _matmul_trailing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of 4x4 matrices batched over the trailing axis."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, 4):
        out += a[:, k, None] * b[None, k]
    return out


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[..., n-1] @ ... @ mats[..., 0] by a pairwise tree product over the trailing axis."""
    while mats.shape[-1] > 1:
        if mats.shape[-1] % 2:
            mats = np.concatenate([mats, np.eye(4, dtype=complex)[:, :, None]], axis=-1)
        mats = _matmul_trailing(mats[..., 1::2], mats[..., 0::2])
    return mats[..., 0]


def complex_cf4_transfer(schedule: PulseSchedule, steps: int) -> np.ndarray:
    """The CF4 transfer over `steps` grid steps from complex 4x4 star exponentials, in one batch.

    Each step is exp(-ih(a2 H1 + a1 H2)) exp(-ih(a1 H1 + a2 H2)) with H1, H2 at the two
    Gauss nodes (Blanes & Moan 2006), the 16 complex entries of each factor multiplied
    out by a pairwise tree product.
    """
    a1, a2 = 0.25 + math.sqrt(3.0) / 6.0, 0.25 - math.sqrt(3.0) / 6.0
    z_start, z_end = schedule.z_span
    h = (z_end - z_start) / steps
    left = z_start + h * np.arange(steps)
    b1 = hub_couplings(schedule, left + (0.5 - math.sqrt(3.0) / 6.0) * h)
    b2 = hub_couplings(schedule, left + (0.5 + math.sqrt(3.0) / 6.0) * h)
    mats = np.empty((4, 4, 2 * steps), dtype=complex)
    mats[..., 0::2] = star_exponentials(a1 * b1 + a2 * b2, h)
    mats[..., 1::2] = star_exponentials(a2 * b1 + a1 * b2, h)
    return _ordered_product(mats)


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
