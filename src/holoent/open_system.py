"""Lindblad loss dynamics for states leaving the chip through lossy waveguides.

Both continuation waveguides lose single photons at the same rate and there is
no Hamiltonian term: free propagation only imprints a local phase that neither
the negativity nor the populations see, so time is measured in units of 1/gamma
and the generator is the pure two-mode decay channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import DensityMatrix, log_negativity, partial_transpose
from .fock import identity_operator, lowering_operator, two_mode_embed

STEP_SIZE_GUARD = 0.01
TRACE_ERROR_TOL = 1e-8
POSITIVITY_ABORT = -1e-6


class IntegrationError(RuntimeError):
    """A numerical integration missed its accuracy or physicality tolerance."""


@dataclass(frozen=True)
class LossConfig:
    """Single-photon loss model parameters; t_max counts in units of 1/gamma."""

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
        if self.t_max / self.steps > STEP_SIZE_GUARD + 1e-15:
            raise ValueError(
                f"step-size guard violated: gamma*dt = {self.t_max / self.steps:.4g} "
                f"exceeds {STEP_SIZE_GUARD}; increase steps"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled observables along one loss evolution; times are gamma*t."""

    times: np.ndarray
    negativity: np.ndarray
    single_photon_population: np.ndarray
    trace_error: np.ndarray


def _loss_operators(d_east: int, d_west: int) -> tuple[np.ndarray, np.ndarray]:
    a_east = two_mode_embed(lowering_operator(d_east - 1), identity_operator(d_west - 1))
    a_west = two_mode_embed(identity_operator(d_east - 1), lowering_operator(d_west - 1))
    return a_east, a_west


def _rhs(rho: np.ndarray, gamma: float, jump_ops: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    drho = np.zeros_like(rho)
    for a in jump_ops:
        ad = a.conj().T
        n_op = ad @ a
        drho += a @ rho @ ad - 0.5 * (n_op @ rho + rho @ n_op)
    return gamma * drho


def lindblad_rhs(rho: DensityMatrix, gamma: float) -> np.ndarray:
    """Time derivative under identical single-photon loss in each mode."""
    if len(rho.dims) != 2:
        raise ValueError(f"loss model needs a two-mode density matrix, got dims {rho.dims}")
    jump_ops = _loss_operators(*rho.dims)
    if jump_ops[0].shape != rho.matrix.shape:
        raise ValueError("cutoff mismatch between rho and the mode operators")
    return _rhs(rho.matrix, gamma, jump_ops)


def bell_qutrit_state() -> DensityMatrix:
    """Equal superposition (|0,0> + |1,1> + |2,2>)/sqrt(3) on the 3x3 occupation space."""
    psi = np.zeros(9, dtype=complex)
    for k in range(3):
        psi[k * 3 + k] = 1.0 / math.sqrt(3.0)
    return DensityMatrix(np.outer(psi, psi.conj()), (3, 3))


def evolve(rho0: DensityMatrix, cfg: LossConfig) -> Trajectory:
    """Fixed-step RK4 integration of the loss generator, sampling every step.

    Records the east-side logarithmic negativity, the total photon number
    normalized to its initial value, and the trace error; the state is
    re-Hermitized after every step. Eigenvalues dipping below the positivity
    tolerance abort with a step-size diagnostic.
    """
    if len(rho0.dims) != 2:
        raise ValueError(f"loss model needs a two-mode density matrix, got dims {rho0.dims}")
    expected_side = (cfg.cutoff + 1) ** 2
    if rho0.matrix.shape[0] != expected_side:
        raise ValueError(
            f"cutoff mismatch: config cutoff {cfg.cutoff} implies side {expected_side}, "
            f"rho has side {rho0.matrix.shape[0]}"
        )
    jump_ops = _loss_operators(*rho0.dims)
    number_op = sum(a.conj().T @ a for a in jump_ops)

    dt = (cfg.t_max / cfg.gamma) / cfg.steps
    rho = rho0.matrix.copy()
    initial_photons = float(np.einsum("ij,ji->", number_op, rho).real)

    times = np.empty(cfg.steps + 1)
    negativity = np.empty(cfg.steps + 1)
    population = np.empty(cfg.steps + 1)
    trace_error = np.empty(cfg.steps + 1)

    def record(k: int) -> None:
        times[k] = cfg.gamma * k * dt
        evals = np.linalg.eigvalsh(rho)
        if not evals.min() >= POSITIVITY_ABORT:
            raise IntegrationError(
                f"eigenvalue {evals.min():.3e} below {POSITIVITY_ABORT} at gamma*t = {times[k]:.4g}; "
                "reduce the step size"
            )
        pt = partial_transpose(DensityMatrix(rho, rho0.dims), "east")
        trace_norm = float(np.abs(np.linalg.eigvalsh(pt)).sum())
        negativity[k] = max(0.0, math.log2(trace_norm))
        if initial_photons > 1e-12:
            photons = float(np.einsum("ij,ji->", number_op, rho).real)
            population[k] = photons / initial_photons
        else:
            population[k] = 0.0
        trace_error[k] = abs(np.trace(rho).real - 1.0)

    record(0)
    for k in range(1, cfg.steps + 1):
        k1 = _rhs(rho, cfg.gamma, jump_ops)
        k2 = _rhs(rho + 0.5 * dt * k1, cfg.gamma, jump_ops)
        k3 = _rhs(rho + 0.5 * dt * k2, cfg.gamma, jump_ops)
        k4 = _rhs(rho + dt * k3, cfg.gamma, jump_ops)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        record(k)

    return Trajectory(times, negativity, population, trace_error)
