"""Coupled-mode propagation through the four-waveguide chip.

Mode order is (east, central, west, aux). The central waveguide is a hub: it
couples to each outer waveguide with a Gaussian profile along the propagation
axis and all propagation constants are equal (zero diagonal), which keeps the
zero-eigenvalue dark subspace two-dimensional for a single photon. A schedule's
fields are 11 reals: peak, center and sigma of each profile in PROFILES order
(east, west, aux), then both ends of z_span; PulseSchedule.fields() returns them.

The default schedule uses a wide auxiliary pulse bridging the whole chip with
offset east/west pulses inside it. At both facets the auxiliary coupling
dominates, so the instantaneous dark subspace coincides with span{east, west}
exactly where photons enter and leave; in between, the coupling direction
traces a closed loop whose enclosed solid angle sets the dark-subspace
rotation angle. The loop shape is configuration, not code: schedules load from
a JSON file and the packaged default is representative, not a device model.

Propagation uses the 4th-order commutator-free Magnus (CF4) scheme of Blanes &
Moan (Appl. Numer. Math. 56, 2006). Every Hamiltonian it exponentiates is a real
star graph H = |c><b| + |b><c| around the hub c. In the gauge D = diag(1, i, 1, 1),
exp(-ihH) is the real rotation by |b|h from c towards b^: with (central, east,
west, aux) as the quaternion units (1, i, j, k) it is x -> w x w, with
w = cos(|b|h/2) + sin(|b|h/2) b^. A level of N factors is then the SU(2) x SU(2)
pair x -> L x R, L = w_N...w_1 and R = w_1...w_N, kept as Cayley-Klein numbers
(2 complex per factor, not 16) and turned into U = D M(L, R) D^-1 once per level.
The scheme is symmetric, so its global error has only even powers of h: the
extrapolant X_N = U_N + (U_N - U_{N/2})/15 of two doubling levels cancels the
h^4 term, and max|X_N - X_{N/2}|/63 estimates the h^6 error left (Hairer,
Norsett & Wanner, Solving ODEs I, II.9). That estimate chooses the step count.
The levels are N0, 2 N0, 4 N0, ..., where N0 is the first step count whose
step is within a quarter of the narrowest pulse width, so every step ratio is
exactly 2; the propagation stops at the first level whose estimate is within
STEP_ERROR_TARGET, and a schedule's `steps` caps the levels (see
propagate_single_photon). Unitarity is no error estimate, and X_N is not
unitary by construction, but with E = U_N - U_{N/2} and both factors unitary,
X_N^dag X_N - I = (16/225) E^dag E exactly: about 1e-18 on the default
schedule, under the ~1e-14 roundoff of the CF4 products themselves.

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

from .fock import check_finite, check_integer, check_positive, check_tolerance
from .holonomy import MAX_LIFT_PHOTONS, RotationFamily, _phase_max, multimode_lift
from .open_system import IntegrationError

MODE_EAST, MODE_CENTRAL, MODE_WEST, MODE_AUX = 0, 1, 2, 3
PROFILES = ("east", "west", "aux")  # the schedule's profiles in the order of PulseSchedule.fields()

BOUNDARY_DECAY = 1e-6
STEP_ERROR_ABORT = 1e-6
STEP_ERROR_TARGET = 1e-11  # on a level's h^6 estimate: 100x under the 1e-9 dataset rule, above ~1e-13 roundoff
DEFAULT_STEPS = 24000  # step cap of a schedule that does not set one
CHUNK_STEPS = 4096  # steps multiplied per batch; bounds propagation memory
# upper bound on the step cap: a 60 s budget per propagation, whose doubling levels N0, 2 N0, ...,
# 2^K N0 <= steps run N0 (2^(K+1) - 1) < 2 * steps CF4 steps in all. CF4 ran at 1.9-2.7 M steps/s
# on a 2-vCPU x86 VM with numpy 2.4 (12 runs of 2 M steps); 0.86 M steps/s keeps the bound through
# the 1.5x slow stretches seen on that VM. Memory is O(CHUNK_STEPS) whatever the bound
MAX_STEPS = 60 * 860_000 // 2
TRANSFER_CACHE_ENTRIES = 64  # schedules whose 4x4 transfer is kept, 256 bytes each

# 4th-order commutator-free Magnus: Gauss nodes (fractions of a step); node k's weight in exponential j
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3.0) / 6.0
_CF4_WEIGHTS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * math.sqrt(3.0) / 6.0
# SU(2) images of the quaternion units i, 1, j, k of the modes east, central, west, aux
_UNITS = np.array([[[1j, 0], [0, -1j]], [[1, 0], [0, 1]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
_GAUGE = np.outer([1, 1j, 1, 1], [1, -1j, 1, 1])  # D_m / D_n for the gauge D = diag(1, i, 1, 1)
_IDENTITY_PAIR = np.array([[1, 1], [0, 0]], dtype=complex)  # (alpha, beta) of (1, 1)


class ScheduleError(ValueError):
    """A pulse schedule is malformed or violates the facet boundary conditions."""


@dataclass(frozen=True)
class CouplingProfile:
    """Gaussian coupling between one outer waveguide and the central hub."""

    peak: float
    center: float
    sigma: float

    def __post_init__(self) -> None:
        for field, check in (("peak", check_positive), ("center", check_finite), ("sigma", check_positive)):
            check(field, getattr(self, field), ScheduleError)
            object.__setattr__(self, field, float(getattr(self, field)))

    def value(self, z):
        with np.errstate(over="ignore"):  # far from the centre the Gaussian is meant to underflow to 0
            arg = (np.asarray(z, dtype=float) - self.center) / self.sigma
            return self.peak * np.exp(-0.5 * arg * arg)


@dataclass(frozen=True)
class PulseSchedule:
    """Coupling profiles for the three outer waveguides over a z interval.

    `steps` caps the step-doubling levels of one propagation, which stop earlier
    when their error estimate meets STEP_ERROR_TARGET; it must admit at least
    three levels from the step count resolving the narrowest pulse. `fields()` is the schedule
    as 11 reals, peak, center and sigma of east, west and aux (PROFILES), then z_start and z_end.
    """

    east: CouplingProfile
    west: CouplingProfile
    aux: CouplingProfile
    z_span: tuple[float, float]
    steps: int = DEFAULT_STEPS

    def __post_init__(self) -> None:
        for name, profile in zip(PROFILES, self.profiles):
            if not isinstance(profile, CouplingProfile):
                raise ScheduleError(f"{name} must be a CouplingProfile, got {profile!r}")
        try:
            z_start, z_end = self.z_span
        except (TypeError, ValueError):
            raise ScheduleError(f"z_span must be a pair of finite reals, got {self.z_span!r}") from None
        check_finite("z_span", z_start, ScheduleError)
        check_finite("z_span", z_end, ScheduleError)
        if not z_start < z_end:
            raise ScheduleError(f"z_span must be increasing, got {self.z_span}")
        check_finite("z_span length", z_end - z_start, ScheduleError)
        check_integer("steps", self.steps, 16, MAX_STEPS, ScheduleError)
        for name, profile in zip(PROFILES, self.profiles):
            for z in (z_start, z_end):  # a coupling left at a facet would make its states bright
                check_tolerance(f"{name} coupling at the facet z = {z}", profile.value(z),
                                BOUNDARY_DECAY * profile.peak, ScheduleError)
        object.__setattr__(self, "z_span", (float(z_start), float(z_end)))

    @property
    def profiles(self) -> tuple[CouplingProfile, ...]:
        return tuple(getattr(self, name) for name in PROFILES)

    @property
    def omega_t(self) -> float:
        """Working pulse area Omega*T with T = sqrt(2) * sigma of the east pulse."""
        return math.sqrt(2.0) * self.east.peak * self.east.sigma

    def fields(self) -> tuple[float, ...]:
        """Peak, center and sigma of each profile in PROFILES order, then z_start and z_end."""
        return tuple(value for p in self.profiles for value in (p.peak, p.center, p.sigma)) + self.z_span

    def with_fields(self, values) -> "PulseSchedule":
        """This schedule with fields() `values`, 11 reals that the constructors check in that order."""
        if len(values) != 11:
            raise ScheduleError(f"fields must be 11 reals, got {len(values)} values")
        profiles = (CouplingProfile(*values[k:k + 3]) for k in range(0, 9, 3))
        return PulseSchedule(*profiles, tuple(values[9:]), self.steps)

    def dilate(self, scale: float) -> "PulseSchedule":
        """Stretch every length scale by `scale`, leaving peak couplings fixed."""
        check_positive("scale", scale, ScheduleError)
        factors = (1.0, scale, scale) * len(PROFILES) + (scale, scale)
        return self.with_fields([value * factor for value, factor in zip(self.fields(), factors)])

    def to_dict(self) -> dict:
        profiles = {name: dict(vars(profile)) for name, profile in zip(PROFILES, self.profiles)}
        return {**profiles, "z_span": list(self.z_span), "steps": self.steps}


def schedule_from_dict(data: dict) -> PulseSchedule:
    """The schedule a JSON object describes (keys east/west/aux, z_span, steps). Values reach
    CouplingProfile and PulseSchedule as they are, and the constructors validate every field."""
    try:
        profiles = [CouplingProfile(data[name]["peak"], data[name]["center"], data[name]["sigma"])
                    for name in PROFILES]
        z_span = data["z_span"]
        steps = data.get("steps", DEFAULT_STEPS)
        if isinstance(steps, float) and steps == int(steps):  # int() rejects inf and NaN
            steps = int(steps)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ScheduleError):
            raise
        raise ScheduleError(f"malformed schedule: {exc}") from exc
    return PulseSchedule(*profiles, z_span, steps)


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


def _step_quaternions(b: np.ndarray, h: float) -> np.ndarray:
    """The unit quaternions w = cos(|b|h/2) + sin(|b|h/2) b^ of the factors exp(-ihH).

    b holds the (east, west, aux) couplings on axis 0. Returns the Cayley-Klein pairs
    alpha = w_1 + i w_i, beta = w_j + i w_k on axis 0 of shape (2, 2) + b.shape[1:], whose
    axis 1 is (w, conj w).
    """
    norm = np.sqrt((b * b).sum(0))
    sin_over_norm = np.sin(0.5 * h * norm) / np.where(norm > 0, norm, 1.0)
    q = np.empty((2, 2) + norm.shape, dtype=complex)
    q[0, 0].real = np.cos(0.5 * h * norm)
    q[0, 0].imag = sin_over_norm * b[0]
    q[1, 0].real = sin_over_norm * b[1]
    q[1, 0].imag = sin_over_norm * b[2]
    q[0, 1] = q[0, 0].conj()
    q[1, 1] = -q[1, 0]
    return q


def _quaternion_product(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """p r for Cayley-Klein pairs on axis 0, batched over the other axes."""
    out = p[0] * r
    cross = p[1] * r[::-1].conj()
    out[0] -= cross[0]
    out[1] += cross[1]
    return out


def _ordered_product(q: np.ndarray) -> np.ndarray:
    """q[..., n-1] ... q[..., 0] by a pairwise tree product over the trailing axis."""
    while q.shape[-1] > 1:
        if q.shape[-1] % 2:
            q = np.concatenate([q, _IDENTITY_PAIR[..., None]], axis=-1)
        q = _quaternion_product(q[..., 1::2], q[..., 0::2])
    return q[..., 0]


def _quaternion_transfer(pair: np.ndarray) -> np.ndarray:
    """The complex 4x4 transfer D M D^-1 of the rotation M: x -> L x R, for pair = (L, conj R)."""
    su2 = np.array([[pair[0], pair[1]], [-pair[1].conj(), pair[0].conj()]])  # [..., (L, conj R)]
    rows = (su2[..., 0] @ _UNITS @ su2[..., 1].conj().T)[:, 0]  # (alpha, beta) of L u R, u = i, 1, j, k
    return np.array([rows[:, 0].imag, rows[:, 0].real, rows[:, 1].real, rows[:, 1].imag]) * _GAUGE


def _cf4_transfer(schedule: PulseSchedule, steps: int) -> np.ndarray:
    """Transfer matrix over `steps` grid steps of the 4th-order commutator-free Magnus scheme.

    Blanes & Moan (2006): each step is exp(-ih(a2 H1 + a1 H2)) exp(-ih(a1 H1 + a2 H2)) with
    H1, H2 at the two Gauss nodes. R = w_1 ... w_n = conj(conj(w_n) ... conj(w_1)), so one tree
    product of w and conj(w) side by side gives L and conj R, CHUNK_STEPS steps at a time.
    """
    z_start, z_end = schedule.z_span
    h = (z_end - z_start) / steps
    pair = _IDENTITY_PAIR
    for first in range(0, steps, CHUNK_STEPS):
        left = z_start + h * np.arange(first, min(first + CHUNK_STEPS, steps))
        zs = left[:, None] + h * _GAUSS_NODES
        b = np.array([p.value(zs) for p in schedule.profiles]) @ _CF4_WEIGHTS
        pair = _quaternion_product(_ordered_product(_step_quaternions(b.reshape(3, -1), h)), pair)
    return _quaternion_transfer(pair)


@functools.lru_cache(maxsize=TRANSFER_CACHE_ENTRIES)
def propagate_single_photon(schedule: PulseSchedule) -> np.ndarray:
    """Transfer matrix of i dpsi/dz = H(z) psi across the chip.

    Uses the 4th-order commutator-free Magnus scheme with memory O(CHUNK_STEPS)
    whatever the step count, and Richardson extrapolation of its step-doubling
    levels N0, 2 N0, 4 N0, ... up to the cap `schedule.steps`. N0 is the first
    step count whose step is within a quarter of the narrowest pulse width: a
    coarser grid's Gauss nodes can miss the pulses altogether. Each level N
    after N0 forms X_N = U_N + (U_N - U_{N/2}) / 15, whose h^4 error term
    cancels, and from the third level on max|X_N - X_{N/2}| / 63 estimates the
    h^6 error of X_N. The first X_N whose estimate is within STEP_ERROR_TARGET is
    returned. If the cap comes first, the last X_N is returned when its
    estimate is within STEP_ERROR_ABORT, and IntegrationError is raised
    otherwise (NaN included). A cap under 4 N0 admits fewer than three levels,
    so it raises IntegrationError before any propagation, naming the cap 4 N0
    or, past MAX_STEPS, saying that the pulses cannot be resolved.

    The result is cached with the schedule's value as the key: equal schedules,
    however they were built, share one propagation, and any changed field (one
    ulp of a centre, `steps`, a dilation) is a new key. The module constants
    (STEP_ERROR_TARGET, STEP_ERROR_ABORT, CHUNK_STEPS) are not
    part of the key. The cache holds at most TRANSFER_CACHE_ENTRIES schedules,
    the returned matrix is read-only, and errors are not cached, so a failing
    schedule fails on every call.
    """
    cap = schedule.steps
    span = schedule.z_span[1] - schedule.z_span[0]
    first = np.ceil(4.0 * span / min(p.sigma for p in schedule.profiles))
    if not 4.0 * first <= cap:  # an h^6 estimate needs three levels; a count rule with advice, not a tolerance
        advice = (f"increase steps to at least {4.0 * first:.0f}" if 4.0 * first <= MAX_STEPS
                  else f"the pulses cannot be resolved within MAX_STEPS = {MAX_STEPS}")
        raise IntegrationError(
            f"step cap {cap} admits fewer than three doubling levels from {first:.0f} steps, the first "
            f"within a quarter of the narrowest pulse width; {advice}"
        )
    steps = int(first)
    coarse, x, estimate = _cf4_transfer(schedule, steps), None, math.inf
    while 2 * steps <= cap and not estimate <= STEP_ERROR_TARGET:
        steps *= 2
        fine = _cf4_transfer(schedule, steps)
        x, previous = fine + (fine - coarse) / 15.0, x
        if previous is not None:
            estimate = np.abs(x - previous).max() / 63.0
        coarse = fine
    check_tolerance("step-doubling error estimate", estimate, STEP_ERROR_ABORT, IntegrationError)
    x.flags.writeable = False
    return x


def facet_block(schedule: PulseSchedule) -> np.ndarray:
    """The read-only east/west 2x2 block of the single-photon transfer; sub-unitary when photons leak."""
    block = propagate_single_photon(schedule)[np.ix_([MODE_EAST, MODE_WEST], [MODE_EAST, MODE_WEST])]
    block.flags.writeable = False
    return block


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
    facet = facet_block(schedule)
    block = multimode_lift(facet, photon_count)
    smallest = np.linalg.svd(facet, compute_uv=False)[-1]
    leakage = max(1.0 - float(smallest) ** (2 * photon_count), 0.0)  # max keeps a NaN only as its first argument
    return block, leakage


def fit_rotation_phase(block: np.ndarray, photon_count: int) -> float:
    """Least-squares phase of the single-parameter holonomy closest to `block`.

    Maximizes the score Re tr(lift(R(phi))^dag block) = Re sum_m c_m e^{i m phi} (see
    RotationFamily) by `_phase_max` over its period, pi for even P and 2 pi for odd P
    (lift(R(phi + pi)) = (-1)^P lift(R(phi))), on 720 grid points per pi. Its Newton polish uses
    the score's slope Re sum i m c_m e^{i m phi} and curvature -Re sum m^2 c_m e^{i m phi}. By
    Bernstein's inequality |score''| <= P^2 sum |c_m|, so the grid point nearest a peak lies
    within 1/2 P^2 sum |c_m| (step/2)^2 of it; that is the candidate margin. The result is the
    least-squares maximizer in [-period/2, period/2); an exactly represented rotation is
    recovered to rounding. `block` must be a finite (P+1)x(P+1) matrix with rotation content:
    a block whose sum |c_m| is not above 1e-12 of its Frobenius norm, the all-zero block
    included, has no best phase and raises ValueError.
    """
    family = RotationFamily(photon_count)
    block = np.asarray(block, dtype=complex)
    side = photon_count + 1
    if block.shape != (side, side):
        raise ValueError(f"block must be {side}x{side} for {photon_count} photons, got shape {block.shape}")
    if not np.isfinite(block).all():
        raise ValueError("block has non-finite entries")
    coefficients = family.trace_coefficients(block)
    weight = float(np.abs(coefficients).sum())
    # a strict lower bound, so not a check_tolerance: the zero block would pass there as 0 <= 0
    if not weight > 1e-12 * np.linalg.norm(block):
        raise ValueError(f"block has no rotation content: sum |c_m| = {weight:.3e}, not above 1e-12 of its norm")
    m = family.charges
    derivatives = np.stack([1j * m * coefficients, -m * m * coefficients], axis=1)  # slope, curvature

    def score(phi):
        return (family.phases(phi).conj() @ coefficients).real

    def slopes(phi):
        return (family.phases(phi).conj() @ derivatives).real.T

    turns = 1 + photon_count % 2  # the score's period in units of pi
    step = math.pi / 720
    margin = 0.5 * photon_count**2 * weight * (0.5 * step) ** 2
    return _phase_max(score, slopes, -0.5 * math.pi * turns, math.pi * turns, 720 * turns, margin)[0]


def lz_error(omega_t: float) -> float:
    """Landau-Zener style single-photon diabatic error estimate exp(-sqrt(2)*Omega*T)."""
    check_positive("omega_t", omega_t)
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
    point is checked by `lz_error`, and dilated, before the first propagation.
    """
    base = schedule.omega_t
    analytic = [lz_error(omega_t) for omega_t in omega_t_values]
    omega_ts = [float(omega_t) for omega_t in omega_t_values]
    dilated = [schedule.dilate(omega_t / base) for omega_t in omega_ts]
    return [
        (omega_t, scan_leakage(point), error) for omega_t, point, error in zip(omega_ts, dilated, analytic)
    ]
