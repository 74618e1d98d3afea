"""holoent: simulator of a four-waveguide holonomic photonic chip as a photon entangler."""

from .fock import (
    DarkBasis,
    OccupationState,
    PureState,
    basis_state,
    dark_basis,
)
from .holonomy import (
    apply_holonomy,
    fock_lift,
    max_entropy_over_phase,
    phi_maximally_entangled,
    single_mode_rotation,
    u3,
)
from .entanglement import (
    DensityMatrix,
    density_from_pure,
    entanglement_entropy_bits,
    entropic_inequality_violated,
    log_negativity,
    partial_transpose,
    purity,
    reduce,
    renyi2_bits,
    schmidt,
    von_neumann_entropy_bits,
)
from .open_system import LossConfig, LossPlan, Trajectory, bell_qutrit_state, evolve, plan_loss
from .adiabatic import (
    CouplingProfile,
    PulseSchedule,
    dark_holonomy,
    default_schedule,
    diabatic_scan,
    fit_rotation_phase,
    load_schedule,
    lz_error,
    propagate_single_photon,
)

__version__ = "0.1.0"
