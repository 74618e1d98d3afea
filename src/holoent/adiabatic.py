"""Coupled-mode propagation through the four-waveguide chip.

Mode order is (east, central, west, aux). The central waveguide is a hub: it
couples to each outer waveguide with a Gaussian profile along the propagation
axis and all propagation constants are equal (zero diagonal), which keeps the
zero-eigenvalue dark subspace two-dimensional for a single photon.

The default schedule uses a wide auxiliary pulse bridging the whole chip with
offset east/west pulses inside it. At both facets the auxiliary coupling
dominates, so the instantaneous dark subspace coincides with span{east, west}
exactly where photons enter and leave; in between, the coupling direction
traces a closed loop whose enclosed solid angle sets the dark-subspace
rotation angle. The loop shape is configuration, not code: schedules load from
a JSON file and the packaged default is representative, not a device model.

Propagation uses the 4th-order commutator-free Magnus scheme of Blanes & Moan
(Appl. Numer. Math. 56, 2006). The single-photon Hamiltonian is a star graph
around the hub, and so is every linear combination of it that the scheme
exponentiates, so each step is a closed-form unitary. Accuracy is checked by
step doubling rather than by unitarity, which holds by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .holonomy import RotationFamily, _golden_section_max, multimode_lift
from .open_system import IntegrationError

MODE_EAST, MODE_CENTRAL, MODE_WEST, MODE_AUX = 0, 1, 2, 3

BOUNDARY_DECAY = 1e-6
STEP_ERROR_ABORT = 1e-6
DEFAULT_STEPS = 24000
CHUNK_STEPS = 2048  # steps multiplied per batch; bounds propagation memory
# upper bound on steps: a 60 s budget per checked propagation, which runs 1.5 * steps
# CF4 steps (step doubling included) at about 0.6 M steps/s on a 2-vCPU x86 VM with
# numpy 2.4; memory is O(CHUNK_STEPS) whatever the bound
MAX_STEPS = 60 * 600_000

# 4th-order commutator-free Magnus: Gauss nodes (fractions of a step) and weights
_GAUSS_1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_2 = 0.5 + math.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + math.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - math.sqrt(3.0) / 6.0


class ScheduleError(ValueError):
    """A pulse schedule is malformed or violates the facet boundary conditions."""


@dataclass(frozen=True)
class CouplingProfile:
    """Gaussian coupling between one outer waveguide and the central hub."""

    peak: float
    center: float
    sigma: float

    def __post_init__(self) -> None:
        for field in ("peak", "center", "sigma"):
            value = getattr(self, field)
            if not math.isfinite(value):
                raise ScheduleError(f"{field} must be finite, got {value}")
        if self.peak <= 0:
            raise ScheduleError(f"peak coupling must be positive, got {self.peak}")
        if self.sigma <= 0:
            raise ScheduleError(f"sigma must be positive, got {self.sigma}")

    def value(self, z):
        arg = (np.asarray(z, dtype=float) - self.center) / self.sigma
        return self.peak * np.exp(-0.5 * arg * arg)


@dataclass(frozen=True)
class PulseSchedule:
    """Coupling profiles for the three outer waveguides over a z interval."""

    east: CouplingProfile
    west: CouplingProfile
    aux: CouplingProfile
    z_span: tuple[float, float]
    steps: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        z_start, z_end = self.z_span
        if not (math.isfinite(z_start) and math.isfinite(z_end)):
            raise ScheduleError(f"z_span must be finite, got {self.z_span}")
        if not z_start < z_end:
            raise ScheduleError(f"z_span must be increasing, got {self.z_span}")
        if not 16 <= self.steps <= MAX_STEPS:
            raise ScheduleError(f"steps must be in [16, {MAX_STEPS}], got {self.steps}")
        for name, profile in (("east", self.east), ("west", self.west), ("aux", self.aux)):
            for z in (z_start, z_end):
                if not profile.value(z) <= BOUNDARY_DECAY * profile.peak:
                    raise ScheduleError(
                        f"{name} coupling has not decayed below {BOUNDARY_DECAY:g} of its peak "
                        f"at z = {z}; facet states would not be dark"
                    )
        object.__setattr__(self, "z_span", (float(z_start), float(z_end)))

    @property
    def omega_t(self) -> float:
        """Working pulse area Omega*T with T = sqrt(2) * sigma of the east pulse."""
        return math.sqrt(2.0) * self.east.peak * self.east.sigma

    def dilate(self, scale: float) -> "PulseSchedule":
        """Stretch every length scale by `scale`, leaving peak couplings fixed."""
        if scale <= 0:
            raise ScheduleError("scale must be positive")

        def stretch(p: CouplingProfile) -> CouplingProfile:
            return CouplingProfile(p.peak, p.center * scale, p.sigma * scale)

        return PulseSchedule(
            stretch(self.east),
            stretch(self.west),
            stretch(self.aux),
            (self.z_span[0] * scale, self.z_span[1] * scale),
            self.steps,
        )

    def reversed(self) -> "PulseSchedule":
        """Mirror the schedule in z (traverse the coupling loop backwards)."""
        z_start, z_end = self.z_span

        def mirror(p: CouplingProfile) -> CouplingProfile:
            return CouplingProfile(p.peak, z_start + z_end - p.center, p.sigma)

        return PulseSchedule(
            mirror(self.east), mirror(self.west), mirror(self.aux), self.z_span, self.steps
        )

    def to_dict(self) -> dict:
        return {
            "east": vars(self.east),
            "west": vars(self.west),
            "aux": vars(self.aux),
            "z_span": list(self.z_span),
            "steps": self.steps,
        }


def schedule_from_dict(data: dict) -> PulseSchedule:
    try:
        profiles = {
            name: CouplingProfile(
                float(data[name]["peak"]), float(data[name]["center"]), float(data[name]["sigma"])
            )
            for name in ("east", "west", "aux")
        }
        z_span = (float(data["z_span"][0]), float(data["z_span"][1]))
        steps = int(data.get("steps", DEFAULT_STEPS))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ScheduleError):
            raise
        raise ScheduleError(f"malformed schedule: {exc}") from exc
    return PulseSchedule(profiles["east"], profiles["west"], profiles["aux"], z_span, steps)


def load_schedule(path: str | Path) -> PulseSchedule:
    """Read a schedule from a JSON file (keys east/west/aux, z_span, steps)."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"schedule file is not valid JSON: {exc}") from exc
    return schedule_from_dict(data)


def default_schedule() -> PulseSchedule:
    """The packaged reference schedule (adiabatic working regime)."""
    text = resources.files("holoent").joinpath("data/default_schedule.json").read_text()
    return schedule_from_dict(json.loads(text))


def _couplings(schedule: PulseSchedule, zs: np.ndarray) -> np.ndarray:
    """Hub coupling vectors b(z) = (Omega_E, 0, Omega_W, Omega_A), shape (4,) + zs.shape."""
    b = np.zeros((4,) + zs.shape)
    for mode, profile in (
        (MODE_EAST, schedule.east),
        (MODE_WEST, schedule.west),
        (MODE_AUX, schedule.aux),
    ):
        b[mode] = profile.value(zs)
    return b


def _star_exponentials(b: np.ndarray, h: float) -> np.ndarray:
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


def _cf4_transfer(schedule: PulseSchedule, steps: int) -> np.ndarray:
    """Transfer matrix over `steps` grid steps of the 4th-order commutator-free Magnus scheme.

    Blanes & Moan (2006): each step is exp(-ih(a2 H1 + a1 H2)) exp(-ih(a1 H1 + a2 H2))
    with H1, H2 at the two Gauss nodes. Both combinations are star Hamiltonians,
    so each exponential is closed-form. Steps are multiplied CHUNK_STEPS at a
    time, with the step index on the trailing axis, where numpy's small-matrix
    products are fastest.
    """
    z_start, z_end = schedule.z_span
    h = (z_end - z_start) / steps
    u = np.eye(4, dtype=complex)
    for first in range(0, steps, CHUNK_STEPS):
        left = z_start + h * np.arange(first, min(first + CHUNK_STEPS, steps))
        b1 = _couplings(schedule, left + _GAUSS_1 * h)
        b2 = _couplings(schedule, left + _GAUSS_2 * h)
        mats = np.empty((4, 4, 2 * len(left)), dtype=complex)
        mats[..., 0::2] = _star_exponentials(_CF4_A1 * b1 + _CF4_A2 * b2, h)
        mats[..., 1::2] = _star_exponentials(_CF4_A2 * b1 + _CF4_A1 * b2, h)
        u = _ordered_product(mats) @ u
    return u


def propagate_single_photon(schedule: PulseSchedule) -> np.ndarray:
    """Transfer matrix of i dpsi/dz = H(z) psi across the chip.

    Uses `schedule.steps` steps of the 4th-order commutator-free Magnus scheme,
    which is unitary by construction. Memory is O(CHUNK_STEPS), independent of
    the step count. The error is estimated by step doubling,
    max|U_N - U_{N//2}| / 15, at the cost of half a propagation; IntegrationError
    is raised when it is not within STEP_ERROR_ABORT (NaN included).
    """
    u = _cf4_transfer(schedule, schedule.steps)
    estimate = np.abs(u - _cf4_transfer(schedule, schedule.steps // 2)).max() / 15.0
    if not estimate <= STEP_ERROR_ABORT:
        raise IntegrationError(
            f"step-doubling error estimate {estimate:.3e} exceeds {STEP_ERROR_ABORT:g}; "
            "increase steps"
        )
    return u


def dark_holonomy(schedule: PulseSchedule, photon_count: int) -> tuple[np.ndarray, float]:
    """Holonomy estimate on the P-photon dark facet states {|n_E, 0, n_W, 0>}.

    In linear optics, amplitudes between states that occupy only the east and
    west modes depend only on the east/west 2x2 sub-block of the single-photon
    transfer matrix, so the block is the P-photon lift of that sub-block,
    ordered by descending east occupation. The sub-block is sub-unitary when
    photons leak, hence `multimode_lift` rather than `fock_lift`. Leakage is
    1 - (smallest singular value)^2 of the block.
    """
    if photon_count < 1:
        raise ValueError("photon_count must be >= 1")
    transfer = propagate_single_photon(schedule)
    facet = transfer[np.ix_([MODE_EAST, MODE_WEST], [MODE_EAST, MODE_WEST])]
    block = multimode_lift(facet, photon_count)
    smallest = np.linalg.svd(block, compute_uv=False)[-1]
    leakage = max(0.0, 1.0 - float(smallest) ** 2)
    return block, leakage


def fit_rotation_phase(block: np.ndarray, photon_count: int) -> float:
    """Least-squares phase of the single-parameter holonomy closest to `block`.

    Maximizes Re tr(lift(R(phi))^dag block) = Re sum_m c_m e^{i m phi} (see
    RotationFamily) over phi in (-pi/2, pi/2]; for an exactly represented
    rotation this recovers phi exactly.
    """
    family = RotationFamily(photon_count)
    coefficients = family.trace_coefficients(block)

    def score(phi):
        return (family.phases(phi).conj() @ coefficients).real

    points = 720
    grid = -0.5 * math.pi + (np.arange(points) + 0.5) * math.pi / points
    best = int(np.argmax(score(grid)))
    lo = grid[best] - math.pi / points
    hi = grid[best] + math.pi / points
    return float(_golden_section_max(score, lo, hi, tol=1e-12)[0])


def lz_error(omega_t: float) -> float:
    """Landau-Zener style single-photon diabatic error estimate exp(-sqrt(2)*Omega*T)."""
    if omega_t <= 0:
        raise ValueError("omega_t must be positive")
    return math.exp(-math.sqrt(2.0) * omega_t)


def scan_leakage(schedule: PulseSchedule) -> float:
    """End-of-chip population outside {east, west} for an east-facet input photon."""
    transfer = propagate_single_photon(schedule)
    return float(
        abs(transfer[MODE_CENTRAL, MODE_EAST]) ** 2 + abs(transfer[MODE_AUX, MODE_EAST]) ** 2
    )


def diabatic_scan(
    schedule: PulseSchedule, omega_t_values: list[float]
) -> list[tuple[float, float, float]]:
    """Numeric leakage vs the analytic estimate over a range of pulse areas.

    Each scan point dilates the reference schedule so its working pulse area
    matches the requested omega_t, then propagates a single east photon.
    """
    base = schedule.omega_t
    results = []
    for omega_t in omega_t_values:
        if omega_t <= 0:
            raise ValueError("omega_t values must be positive")
        dilated = schedule.dilate(omega_t / base)
        results.append((float(omega_t), scan_leakage(dilated), lz_error(omega_t)))
    return results
