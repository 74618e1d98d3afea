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
exponentiates, so each step is a closed-form unitary. The scheme is symmetric,
so its global error has only even powers of h: the extrapolant
X_N = U_N + (U_N - U_{N/2})/15 of two doubling levels cancels the h^4 term, and
max|X_N - X_{N/2}|/63 estimates the h^6 error left (Hairer, Norsett & Wanner,
Solving ODEs I, II.9; an odd level uses its exact step ratio). That estimate
chooses the step count: a schedule's `steps` is a cap, and the propagation
stops at the first of the doubling levels steps/32, ..., steps/2, steps whose
estimate is within STEP_ERROR_TARGET (see propagate_single_photon). Unitarity
is no error estimate, and X_N is not unitary by construction, but with
D = U_N - U_{N/2}, N even and both factors unitary,
X_N^dag X_N - I = (16/225) D^dag D exactly: 1.2e-18 on the default schedule,
under the ~1e-14 roundoff of the CF4 products themselves.

The transfer does not depend on the photon count, so each schedule is
propagated once: `propagate_single_photon` keeps the last
TRANSFER_CACHE_ENTRIES transfers, keyed by the schedule's value (schedules are
frozen and hashable), and returns them read-only.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .fock import check_finite, check_integer
from .holonomy import MAX_LIFT_PHOTONS, RotationFamily, _golden_section_max, multimode_lift
from .open_system import IntegrationError

MODE_EAST, MODE_CENTRAL, MODE_WEST, MODE_AUX = 0, 1, 2, 3

BOUNDARY_DECAY = 1e-6
STEP_ERROR_ABORT = 1e-6
STEP_ERROR_TARGET = 1e-11  # on the h^6 estimate: 100x under the 1e-9 dataset rule, above ~1e-13 roundoff
STEP_DOUBLINGS = 5  # the coarsest step level is steps >> STEP_DOUBLINGS
DEFAULT_STEPS = 24000  # step cap of a schedule that does not set one
CHUNK_STEPS = 2048  # steps multiplied per batch; bounds propagation memory
# upper bound on the step cap: a 60 s budget per propagation, which runs at most
# (1 + 1/2 + ... + 1/32) * steps = 63/32 * steps CF4 steps when it reaches the cap.
# CF4 ran at 1.29-1.49 M steps/s on a 2-vCPU x86 VM with numpy 2.4 (12 runs of 2 M
# steps), taken here as 0.86 M steps/s to hold through the 1.5x slow stretches seen
# on that VM; memory is O(CHUNK_STEPS) whatever the bound
MAX_STEPS = 60 * 860_000 * 32 // 63
TRANSFER_CACHE_ENTRIES = 64  # schedules whose 4x4 transfer is kept, 256 bytes each

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
            check_finite(field, getattr(self, field), ScheduleError)
            object.__setattr__(self, field, float(getattr(self, field)))
        if self.peak <= 0:
            raise ScheduleError(f"peak coupling must be positive, got {self.peak}")
        if self.sigma <= 0:
            raise ScheduleError(f"sigma must be positive, got {self.sigma}")

    def value(self, z):
        arg = (np.asarray(z, dtype=float) - self.center) / self.sigma
        return self.peak * np.exp(-0.5 * arg * arg)


@dataclass(frozen=True)
class PulseSchedule:
    """Coupling profiles for the three outer waveguides over a z interval.

    `steps` caps the CF4 grid steps of one propagation; fewer run when the
    step-doubling estimate meets STEP_ERROR_TARGET first.
    """

    east: CouplingProfile
    west: CouplingProfile
    aux: CouplingProfile
    z_span: tuple[float, float]
    steps: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        for name in ("east", "west", "aux"):
            if not isinstance(getattr(self, name), CouplingProfile):
                raise ScheduleError(f"{name} must be a CouplingProfile, got {getattr(self, name)!r}")
        try:
            z_start, z_end = self.z_span
        except (TypeError, ValueError):
            raise ScheduleError(f"z_span must be a pair of finite reals, got {self.z_span!r}") from None
        check_finite("z_span", z_start, ScheduleError)
        check_finite("z_span", z_end, ScheduleError)
        if not z_start < z_end:
            raise ScheduleError(f"z_span must be increasing, got {self.z_span}")
        check_integer("steps", self.steps, 16, MAX_STEPS, ScheduleError)
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
        check_finite("scale", scale, ScheduleError)
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

    def to_dict(self) -> dict:
        return {
            "east": dict(vars(self.east)),
            "west": dict(vars(self.west)),
            "aux": dict(vars(self.aux)),
            "z_span": list(self.z_span),
            "steps": self.steps,
        }


def schedule_from_dict(data: dict) -> PulseSchedule:
    """The schedule a JSON object describes (keys east/west/aux, z_span, steps). Values reach
    CouplingProfile and PulseSchedule as they are, and the constructors validate every field."""
    try:
        profiles = {
            name: CouplingProfile(data[name]["peak"], data[name]["center"], data[name]["sigma"])
            for name in ("east", "west", "aux")
        }
        z_span = data["z_span"]
        steps = data.get("steps", DEFAULT_STEPS)
        if isinstance(steps, float) and steps == int(steps):  # int() rejects inf and NaN
            steps = int(steps)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ScheduleError):
            raise
        raise ScheduleError(f"malformed schedule: {exc}") from exc
    return PulseSchedule(profiles["east"], profiles["west"], profiles["aux"], z_span, steps)


def load_schedule(path: str | Path) -> PulseSchedule:
    """Read a schedule from a UTF-8 JSON file (keys east/west/aux, z_span, steps)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScheduleError(f"cannot read schedule file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also an int over the digit limit, deep nesting
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

    Uses the 4th-order commutator-free Magnus scheme with memory O(CHUNK_STEPS)
    whatever the step count, and Richardson extrapolation of its step-doubling
    levels steps >> STEP_DOUBLINGS, ..., steps >> 1, steps. Each level N after
    the coarsest forms X_N = U_N + (U_N - U_M) / (r^4 - 1) with M = N >> 1 and
    r = N / M, whose h^4 error term cancels, and from the third level on X_N is
    checked against X_M by the h^6 estimate max|X_N - X_M| / (r^6 - 1). For even
    N, r = 2 and these are / 15 and / 63; an odd N needs the exact r, because
    r = 2 would leave about 4 / N of the h^4 error. The first X_N whose estimate
    is within STEP_ERROR_TARGET is returned. Levels whose step exceeds a quarter
    of the narrowest pulse width are dropped, because their Gauss nodes can miss
    the pulses altogether.

    `schedule.steps` is the cap. If it is reached, its result is returned when
    the estimate is within STEP_ERROR_ABORT, and IntegrationError is raised
    otherwise (NaN included). With fewer than three resolved levels there is no
    h^6 estimate, and U_N itself is checked against U_{N/2}: by
    max|U_N - U_{N/2}| / 15 over two resolved levels, and over fewer, at the
    cap against steps // 2, without the factor 1/15, which holds only once the
    error falls as h^4.

    The result is cached with the schedule's value as the key: equal schedules,
    however they were built, share one propagation, and any changed field (one
    ulp of a centre, `steps`, a dilation) is a new key. The module constants
    (STEP_ERROR_TARGET, STEP_ERROR_ABORT, STEP_DOUBLINGS, CHUNK_STEPS) are not
    part of the key. The cache holds at most TRANSFER_CACHE_ENTRIES schedules,
    the returned matrix is read-only, and errors are not cached, so a failing
    schedule fails on every call.
    """
    return _propagate(schedule)


@functools.lru_cache(maxsize=TRANSFER_CACHE_ENTRIES)
def _propagate(schedule: PulseSchedule) -> np.ndarray:
    """The read-only transfer of `propagate_single_photon`, computed once per schedule value."""
    cap = schedule.steps
    span = schedule.z_span[1] - schedule.z_span[0]
    step_floor = min(p.sigma for p in (schedule.east, schedule.west, schedule.aux)) / 4.0
    levels = [cap >> k for k in range(STEP_DOUBLINGS, -1, -1) if span <= step_floor * (cap >> k)]
    extrapolate, richardson = len(levels) > 2, 15.0  # an h^6 estimate needs two extrapolants
    if len(levels) < 2:
        levels, richardson = [cap // 2, cap], 1.0
    coarse, u = _cf4_transfer(schedule, levels[0]), None
    for steps in levels[1:]:
        fine = _cf4_transfer(schedule, steps)
        if extrapolate:
            ratio = steps / (steps >> 1)  # 2, or just over 2 where the level is odd
            u, previous = fine + (fine - coarse) / (ratio**4 - 1.0), u
            estimate = math.inf if previous is None else np.abs(u - previous).max() / (ratio**6 - 1.0)
        else:
            u, estimate = fine, np.abs(fine - coarse).max() / richardson
        if estimate <= STEP_ERROR_TARGET:
            break
        coarse = fine
    if not estimate <= STEP_ERROR_ABORT:
        raise IntegrationError(
            f"step-doubling error estimate {estimate:.3e} exceeds {STEP_ERROR_ABORT:g}; "
            "increase steps"
        )
    u.flags.writeable = False
    return u


def dark_holonomy(schedule: PulseSchedule, photon_count: int) -> tuple[np.ndarray, float]:
    """Holonomy estimate on the P-photon dark facet states {|n_E, 0, n_W, 0>}.

    In linear optics, amplitudes between states that occupy only the east and
    west modes depend only on the east/west 2x2 sub-block of the single-photon
    transfer matrix, so the block is the P-photon lift of that sub-block,
    ordered by descending east occupation. The sub-block is sub-unitary when
    photons leak, hence `multimode_lift` rather than `fock_lift`. The lift's
    singular values are s1^(P-k) s2^k for the sub-block's s1 >= s2, so the
    leakage, 1 - (smallest singular value of the block)^2, is 1 - s2^(2P).
    photon_count is checked before the propagation.
    """
    check_integer("photon_count", photon_count, 1, MAX_LIFT_PHOTONS)
    transfer = propagate_single_photon(schedule)
    facet = transfer[np.ix_([MODE_EAST, MODE_WEST], [MODE_EAST, MODE_WEST])]
    block = multimode_lift(facet, photon_count)
    smallest = np.linalg.svd(facet, compute_uv=False)[-1]
    leakage = max(0.0, 1.0 - float(smallest) ** (2 * photon_count))
    return block, leakage


def fit_rotation_phase(block: np.ndarray, photon_count: int) -> float:
    """Least-squares phase of the single-parameter holonomy closest to `block`.

    Maximizes Re tr(lift(R(phi))^dag block) = Re sum_m c_m e^{i m phi} (see
    RotationFamily) over phi in (-pi/2, pi/2]; for an exactly represented
    rotation this recovers phi exactly. `block` must be a finite
    (P+1)x(P+1) matrix.
    """
    family = RotationFamily(photon_count)
    block = np.asarray(block, dtype=complex)
    side = photon_count + 1
    if block.shape != (side, side):
        raise ValueError(f"block must be {side}x{side} for {photon_count} photons, got shape {block.shape}")
    if not np.isfinite(block).all():
        raise ValueError("block has non-finite entries")
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
    if not omega_t > 0:
        raise ValueError(f"omega_t must be positive, got {omega_t}")
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
    matches the requested omega_t, then propagates a single east photon. Every
    point is checked and dilated before the first propagation.
    """
    base = schedule.omega_t
    omega_ts = [float(omega_t) for omega_t in omega_t_values]
    for omega_t in omega_ts:
        if not (math.isfinite(omega_t) and omega_t > 0):
            raise ValueError(f"omega_t values must be finite and positive, got {omega_t}")
    dilated = [schedule.dilate(omega_t / base) for omega_t in omega_ts]
    return [
        (omega_t, scan_leakage(point), lz_error(omega_t)) for omega_t, point in zip(omega_ts, dilated)
    ]
