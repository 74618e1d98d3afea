"""Independent reference method for the loss tests.

This is the direct form the library's closed-form loss channel replaced: a
fixed-step RK4 integration of the Lindblad generator `lindblad_rhs`, with the
state re-Hermitized after every step. Tests compare the library against it.
"""

from __future__ import annotations

import numpy as np

from holoent.entanglement import DensityMatrix
from holoent.open_system import lindblad_rhs


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
