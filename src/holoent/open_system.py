"""Photon loss for states leaving the chip through lossy waveguides.

Both continuation waveguides lose single photons at the same rate and there is
no Hamiltonian term: free propagation only imprints a local phase that neither
the negativity nor the populations see, so time is measured in units of 1/gamma
and the generator (`lindblad_rhs`) is the pure two-mode decay channel.

That generator is amplitude damping on each mode, which has a closed form
(Nielsen & Chuang, section 8.3.5): after time t, with eta = exp(-gamma t),
each mode undergoes the channel with Kraus operators
A_l = sum_n sqrt(C(n, l) eta^(n-l) (1-eta)^l) |n-l><n|. `evolve` samples that
exact channel, so there is no integrator and no step-size error; `lindblad_rhs`
is the differential form it solves, kept as a reference for the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# partial_transpose is re-exported: benchmark tracing wraps it through this binding
from .entanglement import DensityMatrix, log_negativity_bits, partial_transpose  # noqa: F401
from .fock import identity_operator, lowering_operator, two_mode_embed
from .holonomy import MEMORY_BUDGET_BYTES

STEP_SIZE_GUARD = 0.01
POSITIVITY_ABORT = -1e-6
CHUNK_SAMPLES = 64  # sample times evaluated per batch; bounds the working memory of evolve
# upper bound on steps: the memory budget at 1024 bytes per sample. One `holoent loss`
# run holds four float64 arrays for each of its two trajectories plus the CSV row
# (record dict, formatted text) of each sample; its tracemalloc peak grows by 537
# bytes per sample, rounded up here for headroom
MAX_LOSS_STEPS = MEMORY_BUDGET_BYTES // 1024 - 1


class IntegrationError(RuntimeError):
    """A numerical method missed its accuracy or physicality tolerance."""


@dataclass(frozen=True)
class LossConfig:
    """Single-photon loss model parameters; t_max counts in units of 1/gamma.

    `steps` is the number of sampling intervals: the trajectory is sampled at
    steps + 1 equally spaced times from 0 to t_max, at most STEP_SIZE_GUARD apart.
    """

    gamma: float = 1.0
    cutoff: int = 2
    t_max: float = 10.0
    steps: int = 1000

    def __post_init__(self) -> None:
        for field in ("gamma", "t_max"):
            value = getattr(self, field)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{field} must be positive and finite, got {value}")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if self.steps > MAX_LOSS_STEPS:
            raise ValueError(f"steps must be <= {MAX_LOSS_STEPS}, got {self.steps}")
        if self.t_max / self.steps > STEP_SIZE_GUARD + 1e-15:
            raise ValueError(
                f"sampling-density guard violated: gamma*dt = {self.t_max / self.steps:.4g} "
                f"exceeds {STEP_SIZE_GUARD}; increase steps"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along one loss evolution; times are gamma*t."""

    times: np.ndarray
    negativity: np.ndarray
    single_photon_population: np.ndarray
    trace_error: np.ndarray


def _two_mode_dims(rho: DensityMatrix) -> tuple[int, int]:
    if len(rho.dims) != 2:
        raise ValueError(f"loss model needs a two-mode density matrix, got dims {rho.dims}")
    return rho.dims[0], rho.dims[1]


def lindblad_rhs(rho: DensityMatrix, gamma: float) -> np.ndarray:
    """Time derivative under identical single-photon loss in each mode."""
    d_east, d_west = _two_mode_dims(rho)
    jump_ops = (
        two_mode_embed(lowering_operator(d_east - 1), identity_operator(d_west - 1)),
        two_mode_embed(identity_operator(d_east - 1), lowering_operator(d_west - 1)),
    )
    if jump_ops[0].shape != rho.matrix.shape:
        raise ValueError("cutoff mismatch between rho and the mode operators")
    drho = np.zeros_like(rho.matrix)
    for a in jump_ops:
        ad = a.conj().T
        n_op = ad @ a
        drho += a @ rho.matrix @ ad - 0.5 * (n_op @ rho.matrix + rho.matrix @ n_op)
    return gamma * drho


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


def _channel_matrix(eta: np.ndarray, levels: int) -> np.ndarray:
    """sum_l A_l (x) A_l, which maps vec(X) to vec(sum_l A_l X A_l^T) for row-major vec."""
    kraus = damping_kraus(eta, levels)
    s = np.einsum("...lij,...lkm->...ikjm", kraus, kraus)
    return s.reshape(eta.shape + (levels * levels, levels * levels))


def damped_states(rho0: DensityMatrix, gamma_t: np.ndarray) -> np.ndarray:
    """Exact rho(t) under equal single-photon loss in both modes, batched over gamma*t.

    With rho0 rearranged as M[(a, c), (b, e)] = rho0[(a, b), (c, e)] (east indices
    a, c; west b, e), the two damping channels act as S_E M S_W^T, where
    S = sum_l A_l (x) A_l. Returns shape gamma_t.shape + rho0.matrix.shape.
    """
    d_east, d_west = _two_mode_dims(rho0)
    eta = np.exp(-np.asarray(gamma_t, dtype=float))
    m = rho0.matrix.reshape(d_east, d_west, d_east, d_west).transpose(0, 2, 1, 3)
    m = m.reshape(d_east * d_east, d_west * d_west)
    out = _channel_matrix(eta, d_east) @ m @ np.swapaxes(_channel_matrix(eta, d_west), -1, -2)
    out = np.swapaxes(out.reshape(eta.shape + (d_east, d_east, d_west, d_west)), -3, -2)
    return out.reshape(eta.shape + rho0.matrix.shape)


def bell_qutrit_state() -> DensityMatrix:
    """Equal superposition (|0,0> + |1,1> + |2,2>)/sqrt(3) on the 3x3 occupation space."""
    psi = np.zeros(9, dtype=complex)
    for k in range(3):
        psi[k * 3 + k] = 1.0 / math.sqrt(3.0)
    return DensityMatrix(np.outer(psi, psi.conj()), (3, 3))


def evolve(rho0: DensityMatrix, cfg: LossConfig) -> Trajectory:
    """Sample the exact loss channel at cfg.steps + 1 equally spaced times up to t_max.

    Records the east-side logarithmic negativity, the total photon number
    normalized to its initial value, and the trace error. Samples are evaluated
    CHUNK_SAMPLES at a time, so the working memory does not grow with `steps`.
    The channel is completely positive and trace preserving, so an eigenvalue
    below the positivity tolerance (or NaN) means rho0 itself is not positive
    semidefinite; it raises IntegrationError.
    """
    d_east, d_west = _two_mode_dims(rho0)
    expected_side = (cfg.cutoff + 1) ** 2
    if rho0.matrix.shape[0] != expected_side:
        raise ValueError(
            f"cutoff mismatch: config cutoff {cfg.cutoff} implies side {expected_side}, "
            f"rho has side {rho0.matrix.shape[0]}"
        )
    photon_number = np.add.outer(np.arange(d_east), np.arange(d_west)).ravel()
    initial_photons = float(photon_number @ np.diagonal(rho0.matrix).real)

    dt = (cfg.t_max / cfg.gamma) / cfg.steps
    times = cfg.gamma * np.arange(cfg.steps + 1) * dt
    negativity = np.empty(cfg.steps + 1)
    population = np.empty(cfg.steps + 1)
    trace_error = np.empty(cfg.steps + 1)

    for first in range(0, cfg.steps + 1, CHUNK_SAMPLES):
        chunk = slice(first, first + CHUNK_SAMPLES)
        rho = damped_states(rho0, times[chunk])
        lowest = np.linalg.eigvalsh(rho).min(axis=-1)
        if not lowest.min() >= POSITIVITY_ABORT:
            worst = int(np.argmin(lowest))
            raise IntegrationError(
                f"eigenvalue {lowest.min():.3e} below {POSITIVITY_ABORT} at gamma*t = "
                f"{times[first + worst]:.4g}; the loss channel is exact and completely positive, "
                "so the initial state is not positive semidefinite"
            )
        negativity[chunk] = log_negativity_bits(rho, rho0.dims, "east")
        diagonal = np.diagonal(rho, axis1=-2, axis2=-1).real
        if initial_photons > 1e-12:
            population[chunk] = diagonal @ photon_number / initial_photons
        else:
            population[chunk] = 0.0
        trace_error[chunk] = np.abs(diagonal.sum(axis=-1) - 1.0)

    return Trajectory(times, negativity, population, trace_error)
