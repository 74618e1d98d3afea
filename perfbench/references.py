"""Closed-form references for the benchmark's output checks.

Everything here uses numpy and the standard library only, never `holoent`,
so a defect in the program cannot hide in its own reference.

Conventions shared with the program's documented outputs:
- the P-photon dark basis is ordered (P,0), (P-1,1), ..., (0,P), so the index
  of |n_E, n_W> is n_W;
- a 2x2 mode transform u sends a_k^dag to sum_j u[j, k] a_j^dag, and the
  rotation family is R(phi) = [[cos phi, -sin phi], [sin phi, cos phi]];
- waveguide modes are ordered (east, central, west, aux), central is the hub.
"""

from __future__ import annotations

import math

import numpy as np

EAST, CENTRAL, WEST, AUX = 0, 1, 2, 3
ENTROPY_FLOOR = 1e-12


def two_mode_lift(u: np.ndarray, photons: int) -> np.ndarray:
    """Photon-number representation of 2x2 mode transforms, batched over leading axes.

    Entry (out n_W = j, in n_W = k) is the coefficient of (a_E^dag)^(P-j) (a_W^dag)^j
    in (u00 a_E^dag + u10 a_W^dag)^(P-k) (u01 a_E^dag + u11 a_W^dag)^k, times
    sqrt((P-j)! j! / ((P-k)! k!)).
    """
    u = np.asarray(u, dtype=complex)
    u00, u10, u01, u11 = u[..., 0, 0], u[..., 1, 0], u[..., 0, 1], u[..., 1, 1]
    lifted = np.zeros(u.shape[:-2] + (photons + 1, photons + 1), dtype=complex)
    fact = math.factorial
    for k in range(photons + 1):
        n_e_in, n_w_in = photons - k, k
        for j in range(photons + 1):
            m_e = photons - j
            norm = math.sqrt(fact(m_e) * fact(j) / (fact(n_e_in) * fact(n_w_in)))
            total = 0.0
            # a east creators drawn from the first factor, m_e - a from the second
            for a in range(max(0, m_e - n_w_in), min(n_e_in, m_e) + 1):
                b = m_e - a
                total = total + (
                    math.comb(n_e_in, a) * math.comb(n_w_in, b)
                    * u00**a * u10 ** (n_e_in - a) * u01**b * u11 ** (n_w_in - b)
                )
            lifted[..., j, k] = norm * total
    return lifted


def rotation(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)


def dark_populations(phi, photons: int, input_index: int) -> np.ndarray:
    """|a_k|^2 of R(phi) applied to dark basis state `input_index`, shape (..., P+1).

    The east reduction of a fixed-photon-number dark pure state is diagonal,
    with these populations on its diagonal.
    """
    return np.abs(two_mode_lift(rotation(phi), photons)[..., :, input_index]) ** 2


def entropy_bits(p: np.ndarray) -> np.ndarray:
    safe = np.where(p > ENTROPY_FLOOR, p, 1.0)
    return np.maximum(0.0, -(np.where(p > ENTROPY_FLOOR, p * np.log2(safe), 0.0)).sum(-1))


def purity(p: np.ndarray) -> np.ndarray:
    return (p * p).sum(-1)


def sweep_phases(points: int) -> list[float]:
    """The documented sweep grid k*pi/points plus the two marker phases."""
    phis = [k * (math.pi / points) for k in range(points)]
    for marker in (0.5 * math.atan(math.sqrt(2.0)), math.pi / 4.0):
        if marker not in phis:
            phis.append(marker)
    return sorted(phis)


# --- coupled-mode propagation -------------------------------------------------


def couplings(schedule: dict, z: np.ndarray) -> np.ndarray:
    """Hub couplings b(z) = (Omega_E, 0, Omega_W, Omega_A), shape z.shape + (4,)."""
    b = np.zeros(np.shape(z) + (4,))
    for mode, name in ((EAST, "east"), (WEST, "west"), (AUX, "aux")):
        p = schedule[name]
        arg = (z - p["center"]) / p["sigma"]
        b[..., mode] = p["peak"] * np.exp(-0.5 * arg * arg)
    return b


def star_exponential(b: np.ndarray, h: float) -> np.ndarray:
    """exp(-i h H) for the star Hamiltonian H = |c><b| + |b><c|, batched over b.

    exp(-iHh) = I + (cos|b|h - 1)(|c><c| + |bh><bh|) - i sin|b|h (|c><bh| + |bh><c|).
    """
    norm = np.linalg.norm(b, axis=-1)
    bhat = b / np.where(norm > 0, norm, 1.0)[..., None]
    c = np.zeros(4)
    c[CENTRAL] = 1.0
    cc = np.outer(c, c)
    bb = bhat[..., :, None] * bhat[..., None, :]
    cb = c[:, None] * bhat[..., None, :]
    cos_m1 = (np.cos(norm * h) - 1.0)[..., None, None]
    sin = np.sin(norm * h)[..., None, None]
    return np.eye(4) + cos_m1 * (cc + bb) - 1j * sin * (cb + np.swapaxes(cb, -1, -2))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] by a pairwise tree over the leading axis."""
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            mats = np.concatenate([mats, np.eye(mats.shape[-1])[None]])
        mats = mats[1::2] @ mats[0::2]
    return mats[0]


def transfer_matrix(schedule: dict, steps: int) -> np.ndarray:
    """Single-photon transfer matrix by 4th-order commutator-free Magnus steps.

    Blanes & Moan (2006): two exponentials per step of linear combinations of
    H at the Gauss nodes; each combination is again a star Hamiltonian.
    """
    z0, z1 = schedule["z_span"]
    h = (z1 - z0) / steps
    start = z0 + h * np.arange(steps)
    r3 = math.sqrt(3.0)
    b1 = couplings(schedule, start + (0.5 - r3 / 6.0) * h)
    b2 = couplings(schedule, start + (0.5 + r3 / 6.0) * h)
    a1, a2 = 0.25 + r3 / 6.0, 0.25 - r3 / 6.0
    first = star_exponential(a1 * b1 + a2 * b2, h)
    second = star_exponential(a2 * b1 + a1 * b2, h)
    steps_mats = np.empty((2 * steps, 4, 4), dtype=complex)
    steps_mats[0::2] = first
    steps_mats[1::2] = second
    return ordered_product(steps_mats)


def dilate(schedule: dict, scale: float) -> dict:
    """Stretch every length of the schedule by `scale`, peaks fixed."""
    out = {name: {"peak": schedule[name]["peak"], "center": schedule[name]["center"] * scale,
                  "sigma": schedule[name]["sigma"] * scale} for name in ("east", "west", "aux")}
    out["z_span"] = [schedule["z_span"][0] * scale, schedule["z_span"][1] * scale]
    return out


def working_area(schedule: dict) -> float:
    """Omega*T = sqrt(2) * peak * sigma of the east pulse."""
    return math.sqrt(2.0) * schedule["east"]["peak"] * schedule["east"]["sigma"]


def east_leakage(transfer: np.ndarray) -> float:
    return float(abs(transfer[CENTRAL, EAST]) ** 2 + abs(transfer[AUX, EAST]) ** 2)


def facet_block(transfer: np.ndarray) -> np.ndarray:
    return transfer[np.ix_([EAST, WEST], [EAST, WEST])]


def block_angle(block: np.ndarray) -> float:
    """Phase of the rotation closest to a 2x2 block: argmax Re tr(R(phi)^dag B)."""
    return math.atan2((block[1, 0] - block[0, 1]).real, (block[0, 0] + block[1, 1]).real)


# --- photon loss --------------------------------------------------------------


def damping_kraus(eta: np.ndarray, levels: int) -> np.ndarray:
    """Amplitude-damping Kraus operators A_l, shape eta.shape + (levels, levels, levels).

    A_l = sum_n sqrt(C(n, l) eta^(n-l) (1-eta)^l) |n-l><n|.
    """
    eta = np.asarray(eta, dtype=float)
    kraus = np.zeros(eta.shape + (levels, levels, levels))
    for l in range(levels):
        for n in range(l, levels):
            kraus[..., l, n - l, n] = np.sqrt(math.comb(n, l) * eta ** (n - l) * (1.0 - eta) ** l)
    return kraus


def lossy_negativity(psi: np.ndarray, times: np.ndarray) -> np.ndarray:
    """East log-negativity of |psi><psi| after equal loss in both modes, eta = exp(-t).

    `psi` is a two-mode amplitude vector with flat index n_E * d + n_W.
    """
    d = math.isqrt(psi.shape[0])
    kraus = damping_kraus(np.exp(-np.asarray(times, dtype=float)), d)
    m = psi.reshape(d, d)
    # branch (l, l') amplitudes: A_l m A_l'^T, batched over time
    branches = np.einsum("tlab,bc,tmdc->tlmad", kraus, m, kraus)
    rho = np.einsum("tlmab,tlmcd->tabcd", branches, branches.conj())
    pt = rho.transpose(0, 3, 2, 1, 4).reshape(len(times), d * d, d * d)
    trace_norm = np.abs(np.linalg.eigvalsh(pt)).sum(-1)
    return np.maximum(0.0, np.log2(trace_norm))
