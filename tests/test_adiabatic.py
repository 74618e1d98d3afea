import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from holoent import adiabatic
from holoent.adiabatic import (
    CHUNK_STEPS,
    MAX_STEPS,
    MODE_AUX,
    MODE_CENTRAL,
    MODE_EAST,
    MODE_WEST,
    STEP_ERROR_TARGET,
    TRANSFER_CACHE_ENTRIES,
    CouplingProfile,
    IntegrationError,
    PulseSchedule,
    ScheduleError,
    _cf4_transfer,
    _quaternion_transfer,
    _step_quaternions,
    dark_holonomy,
    default_schedule,
    diabatic_scan,
    facet_block,
    fit_rotation_phase,
    load_schedule,
    lz_error,
    propagate_single_photon,
    scan_leakage,
    schedule_from_dict,
)
from holoent.holonomy import MAX_LIFT_PHOTONS, RotationFamily, fock_lift, single_mode_rotation, u3
from propagation_oracle import (
    complex_cf4_transfer,
    expm_hermitian,
    four_mode_dark_block,
    hamiltonian_at,
    rk4_transfer,
    star_exponentials,
    star_hamiltonian,
)

FAR = 1.0e6  # a Gaussian centred this far away underflows to exactly zero
OUTER = [MODE_EAST, MODE_WEST, MODE_AUX]


def far_profile() -> CouplingProfile:
    return CouplingProfile(peak=1.0, center=FAR, sigma=1.0)


def idle_schedule() -> PulseSchedule:
    """All couplings exactly zero over the propagation window.

    The ladder starts at N0 = 20 / (1/4) = 80 steps, so the cap 320 = 4 N0 admits its three levels.
    """
    return PulseSchedule(far_profile(), far_profile(), far_profile(), (-10.0, 10.0), steps=320)


def floor_steps(schedule: PulseSchedule) -> int:
    """N0, the first step count whose step is within a quarter of the narrowest pulse width."""
    span = schedule.z_span[1] - schedule.z_span[0]
    return math.ceil(4.0 * span / min(p.sigma for p in (schedule.east, schedule.west, schedule.aux)))


def narrow_pulse_schedule() -> PulseSchedule:
    """Three sigma = 0.05 pulses at z = 0 over [-17, 17], capped at 64 steps.

    The Gauss nodes of a 4-step grid all miss the pulses, so a controller that
    let such a level decide would accept the identity; the true transfer is far
    from it. The ladder starts at N0 = 34 / (0.05/4) = 2720 steps, so the cap is
    far under the 4 N0 = 10880 that three levels need.
    """
    pulse = CouplingProfile(peak=7.0710678118654755, center=0.0, sigma=0.05)
    aux = CouplingProfile(peak=9.899494936611665, center=0.0, sigma=0.05)
    return PulseSchedule(pulse, pulse, aux, (-17.0, 17.0), steps=64)


def strong_pulse_schedule() -> PulseSchedule:
    """The default schedule with every peak coupling 10x, capped at 4 N0 = 544 steps.

    Its three levels run, but a step of sigma/16 is still coarse against the 10x couplings,
    so the estimate at the cap is about 1e-3, over STEP_ERROR_ABORT.
    """
    sched = dataclasses.replace(default_schedule(), steps=544)
    values = list(sched.fields())
    values[0:9:3] = [10.0 * peak for peak in values[0:9:3]]
    return sched.with_fields(values)


def wide_pulse() -> CouplingProfile:
    return CouplingProfile(peak=1.0, center=0.0, sigma=0.5)


def narrow_aux_pulse() -> CouplingProfile:
    return CouplingProfile(peak=5.0, center=0.0, sigma=0.03125)


def reversed_schedule(schedule: PulseSchedule) -> PulseSchedule:
    """Mirror the schedule in z (traverse the coupling loop backwards)."""
    z_start, z_end = schedule.z_span
    values = list(schedule.fields())
    values[1:9:3] = [z_start + z_end - center for center in values[1:9:3]]
    return schedule.with_fields(values)


def hand_dilated(schedule: PulseSchedule, scale) -> PulseSchedule:
    """The dilation built profile by profile, as before PulseSchedule.fields() existed."""

    def stretch(p: CouplingProfile) -> CouplingProfile:
        return CouplingProfile(p.peak, p.center * scale, p.sigma * scale)

    return PulseSchedule(stretch(schedule.east), stretch(schedule.west), stretch(schedule.aux),
                         (schedule.z_span[0] * scale, schedule.z_span[1] * scale), schedule.steps)


def outcome(build) -> tuple:
    """("ok", the fields as float.hex strings, steps) of build(), or ("error", its ScheduleError's message)."""
    try:
        sched = build()
    except ScheduleError as exc:
        return "error", str(exc)
    return "ok", [value.hex() for value in sched.fields()], sched.steps


def propagate_recording_levels(schedule: PulseSchedule):
    """propagate_single_photon(schedule) and the (steps, transfer) of every level it ran.

    The transfer cache is cleared first, so the levels are those of a cold propagation.
    """
    adiabatic.propagate_single_photon.cache_clear()
    runs = []

    def record(sched, steps):
        runs.append((steps, _cf4_transfer(sched, steps)))
        return runs[-1][1]

    with mock.patch.object(adiabatic, "_cf4_transfer", record):
        return propagate_single_photon(schedule), runs


def extrapolant(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """X_N = U_N + (U_N - U_{N/2}) / 15, written as the propagator writes it."""
    return fine + (fine - coarse) / 15.0


def extrapolated(schedule: PulseSchedule, steps: int) -> np.ndarray:
    """The extrapolant of the CF4 transfers over `steps` and `steps // 2` grid steps."""
    return extrapolant(_cf4_transfer(schedule, steps), _cf4_transfer(schedule, steps // 2))


def unitarity_identity_residual(x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """How far X = extrapolant(U, V) is from X^dag X - I = c(1+c) D^dag D + (1+c) G_U - c G_V.

    c = 1/15, so that c(1+c) = 16/225; D = U - V and G_M = M^dag M - I. The identity is exact
    for any U and V; the G terms are the factors' own unitarity defects, about 1e-14 for CF4
    products of thousands of steps, and vanish for unitary factors.
    """
    def gram(m):
        return m.conj().T @ m - np.eye(4)

    c, d = 1.0 / 15.0, u - v
    expected = c * (1.0 + c) * (d.conj().T @ d) + (1.0 + c) * gram(u) - c * gram(v)
    return float(np.abs(gram(x) - expected).max())


profiles = st.builds(
    CouplingProfile,
    peak=st.floats(0.5, 10.0),
    center=st.floats(-3.0, 3.0),
    sigma=st.floats(0.03, 1.5),
)


def pulse_schedule(east: CouplingProfile, west: CouplingProfile, aux: CouplingProfile, margin: float,
                   steps: int = adiabatic.DEFAULT_STEPS) -> PulseSchedule:
    """The three pulses over a span reaching `margin` past the widest 6 sigma."""
    half = max(abs(p.center) + 6.0 * p.sigma for p in (east, west, aux)) + margin
    return PulseSchedule(east, west, aux, (-half, half), steps=steps)


@st.composite
def laddered_schedules(draw) -> PulseSchedule:
    """Drawn pulses capped at N0 times 4 or more (up to about 36 000), so every ladder runs."""
    sched = pulse_schedule(draw(profiles), draw(profiles), draw(profiles), draw(st.floats(0.0, 15.0)))
    first = floor_steps(sched)
    return dataclasses.replace(sched, steps=first * draw(st.integers(4, max(4, 36000 // first))))


@pytest.fixture(scope="module")
def schedule() -> PulseSchedule:
    return default_schedule()


@pytest.fixture(scope="module")
def transfer(schedule):
    return propagate_single_photon(schedule)


@pytest.fixture(scope="module")
def dark_blocks(schedule):
    return {p: dark_holonomy(schedule, p) for p in (1, 2)}


class TestHamiltonian:
    def test_zero_couplings_give_zero_matrix(self):
        h = hamiltonian_at(idle_schedule(), 0.0)
        assert np.abs(h).max() == 0.0

    def test_single_coupling_spectrum(self):
        omega = 2.3
        sched = PulseSchedule(
            CouplingProfile(omega, 0.0, 1.0),
            far_profile(),
            far_profile(),
            (-10.0, 10.0),
            steps=64,
        )
        evals = np.linalg.eigvalsh(hamiltonian_at(sched, 0.0))
        assert np.abs(np.sort(evals) - np.array([-omega, 0.0, 0.0, omega])).max() < 1e-12

    def test_dark_vector_is_kernel_vector(self):
        sched = PulseSchedule(
            CouplingProfile(1.5, 0.3, 1.0),
            CouplingProfile(0.9, -0.3, 1.0),
            far_profile(),
            (-12.0, 12.0),
            steps=64,
        )
        z = 0.1
        omega_e = float(sched.east.value(z))
        omega_w = float(sched.west.value(z))
        theta = math.atan2(omega_w, omega_e)
        dark = np.array([math.sin(theta), 0.0, -math.cos(theta), 0.0])
        assert np.abs(hamiltonian_at(sched, z) @ dark).max() < 1e-12

    def test_diagonal_is_zero(self, schedule):
        h = hamiltonian_at(schedule, 0.4)
        assert np.abs(np.diag(h)).max() == 0.0
        assert np.abs(h - h.conj().T).max() == 0.0


class TestPropagation:
    def test_zero_couplings_give_identity(self):
        u = propagate_single_photon(idle_schedule())
        assert np.abs(u - np.eye(4)).max() == 0.0

    def test_unitarity_at_default_resolution(self, transfer):
        assert np.abs(transfer @ transfer.conj().T - np.eye(4)).max() < 1e-9

    @pytest.mark.parametrize("omega_t", [2.28, 5.0, 10.0])
    def test_accepted_transfer_within_twice_target(self, schedule, omega_t):
        dilated = schedule.dilate(omega_t / schedule.omega_t)
        fine = extrapolated(dilated, 4 * dilated.steps)
        assert np.abs(propagate_single_photon(dilated) - fine).max() <= 2.0 * STEP_ERROR_TARGET

    def test_default_schedule_stops_at_2176_steps(self, schedule):
        _, runs = propagate_recording_levels(schedule)
        assert floor_steps(schedule) == 136
        assert [steps for steps, _ in runs] == [136, 272, 544, 1088, 2176]

    @pytest.mark.parametrize("cap", [1088, 2175])
    def test_reaching_the_cap_returns_the_last_level_transfer(self, schedule, cap):
        # 1088 = 8 N0 is the last level itself; under 2176 = 16 N0 the ladder stops at 1088 too
        capped = dataclasses.replace(schedule, steps=cap)
        u, runs = propagate_recording_levels(capped)
        steps, transfers = zip(*runs)
        assert steps == (136, 272, 544, 1088)
        # the estimate at the cap misses the target, so the cap rule, not the target, accepts it
        assert np.abs(u - extrapolant(transfers[2], transfers[1])).max() / 63.0 > STEP_ERROR_TARGET
        assert np.array_equal(u, extrapolated(capped, 1088))

    def test_extrapolant_unitarity_identity(self, schedule):
        u, runs = propagate_recording_levels(schedule)
        assert unitarity_identity_residual(u, runs[-1][1], runs[-2][1]) <= 1e-15
        # at 40 steps D is 0.5, so the D^dag D term is large enough to pin the factor 1/15
        fine, coarse = _cf4_transfer(schedule, 40), _cf4_transfer(schedule, 20)
        assert unitarity_identity_residual(extrapolant(fine, coarse), fine, coarse) <= 1e-15

    def test_narrow_pulses_need_a_cap_of_four_floor_levels(self, cf4_steps):
        narrow = narrow_pulse_schedule()
        assert np.abs(_cf4_transfer(narrow, 40000) - np.eye(4)).max() > 0.5
        cf4_steps.clear()
        for cap in (64, 10879):
            with pytest.raises(IntegrationError, match="at least 10880$"):
                propagate_single_photon(dataclasses.replace(narrow, steps=cap))
        assert cf4_steps == []  # the cap is checked before any propagation
        _, runs = propagate_recording_levels(dataclasses.replace(narrow, steps=10880))
        assert [steps for steps, _ in runs][:3] == [2720, 5440, 10880]  # N0 has a step within sigma/4

    def test_cap_under_four_floor_levels_is_named(self, cf4_steps):
        # the aux pulse's sigma/4 = 1/128 over a span of 26 gives N0 = 3328
        sched = PulseSchedule(wide_pulse(), wide_pulse(), narrow_aux_pulse(), (-13.0, 13.0), steps=1100)
        assert floor_steps(sched) == 3328
        message = (
            "step cap 1100 admits fewer than three doubling levels from 3328 steps, the first within a "
            "quarter of the narrowest pulse width; increase steps to at least 13312"
        )
        with pytest.raises(IntegrationError, match=f"^{message}$"):
            propagate_single_photon(sched)
        assert cf4_steps == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the Gaussian's overflow to 0 warns no more
    @pytest.mark.parametrize(
        "sigma, z_span",
        [(5e-324, (-10.0, 10.0)), (1.0, (-1e308, 5e307)), (1e-5, (-17.0, 17.0))],
        ids=["subnormal-sigma", "overflowing-span", "finite-floor-past-max-steps"],
    )
    def test_floor_level_past_every_cap_is_named(self, cf4_steps, sigma, z_span):
        # 4 span / sigma overflows to inf (a span of 1.5e308 is finite, 4 times it is not),
        # or 4 N0 = 4 * 34 / (1e-5/4) = 5.44e7 exceeds MAX_STEPS
        sched = PulseSchedule(CouplingProfile(1.0, 0.0, sigma), far_profile(), far_profile(), z_span, steps=320)
        assert not 4.0 * (4.0 * (z_span[1] - z_span[0]) / sigma) <= MAX_STEPS
        message = f"; the pulses cannot be resolved within MAX_STEPS = {MAX_STEPS}$"
        with pytest.raises(IntegrationError, match=message):
            propagate_single_photon(sched)
        assert cf4_steps == []

    @settings(max_examples=25, deadline=None)
    @example(sched=pulse_schedule(wide_pulse(), wide_pulse(), narrow_aux_pulse(), 10.0, steps=1352))
    # N0 = 12 / (0.5/4) = 96: a cap one under 4 N0 = 384 is refused, and 384 runs exactly three levels
    @example(sched=pulse_schedule(CouplingProfile(1.0, 0.0, 1.0), CouplingProfile(1.0, 0.0, 1.0),
                                  CouplingProfile(1.0, 0.0, 0.5), 0.0, steps=383))
    @example(sched=pulse_schedule(CouplingProfile(1.0, 0.0, 1.0), CouplingProfile(1.0, 0.0, 1.0),
                                  CouplingProfile(1.0, 0.0, 0.5), 0.0, steps=384))
    @given(sched=laddered_schedules())
    def test_accepted_transfer_within_twice_its_estimate(self, sched):
        cap, first = sched.steps, floor_steps(sched)
        if cap < 4 * first:  # fewer than three levels: refused before any propagation
            event("cap under 4 N0")
            with pytest.raises(IntegrationError, match=f"from {first} steps, .* at least {4 * first}$"):
                propagate_recording_levels(sched)
            return
        u, runs = propagate_recording_levels(sched)
        steps, transfers = zip(*runs)
        event(f"{len(runs)} levels")
        assert steps[0] == first and len(steps) >= 3
        assert all(fine == 2 * coarse for coarse, fine in zip(steps, steps[1:]))
        estimate = np.abs(u - extrapolant(transfers[-2], transfers[-3])).max() / 63.0
        assert unitarity_identity_residual(u, transfers[-1], transfers[-2]) <= 1e-15
        fine = extrapolated(sched, 4 * cap)
        assert np.abs(u - fine).max() <= 2.0 * max(STEP_ERROR_TARGET, estimate)

    def test_adiabatic_leakage_below_tolerance(self, schedule):
        assert schedule.omega_t == pytest.approx(10.0, abs=1e-9)
        assert scan_leakage(schedule) < 1e-6

    def test_too_few_steps_abort(self, schedule):
        with pytest.raises(IntegrationError):
            propagate_single_photon(dataclasses.replace(schedule, steps=16))

    @given(
        couplings=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
        h=st.floats(0.0, 1.0),
    )
    def test_step_quaternion_matches_eigh(self, couplings, h):
        # the 4x4 image of one factor's quaternion, and the oracle's complex star exponential
        b = np.zeros(4)
        b[OUTER] = couplings
        expected = expm_hermitian(star_hamiltonian(b), h)
        factor = _quaternion_transfer(_step_quaternions(np.array(couplings)[:, None], h)[..., 0])
        assert np.abs(factor - expected).max() < 1e-12
        assert np.abs(star_exponentials(b, h) - expected).max() < 1e-12

    @pytest.mark.parametrize("steps", [16, 137, 1088, 2175, 4352])
    @pytest.mark.parametrize("scale", [1.0, 0.2276, 0.35, 0.5, "strong"])
    def test_matches_complex_oracle(self, schedule, scale, steps):
        # 4352 steps run two chunks of CHUNK_STEPS = 4096
        sched = strong_pulse_schedule() if scale == "strong" else schedule.dilate(scale)
        assert np.abs(_cf4_transfer(sched, steps) - complex_cf4_transfer(sched, steps)).max() <= 1e-13

    @settings(max_examples=25, deadline=None)
    @given(sched=laddered_schedules(), steps=st.integers(16, 4352))
    def test_matches_complex_oracle_on_drawn_schedules(self, sched, steps):
        assert np.abs(_cf4_transfer(sched, steps) - complex_cf4_transfer(sched, steps)).max() <= 1e-13

    @pytest.mark.parametrize("steps", [16, 137, 4352])
    def test_gauge_holds_exactly(self, schedule, steps):
        # U = D M D^-1 with M real and D = diag(1, i, 1, 1), in the transfer and in the extrapolant
        for u in (_cf4_transfer(schedule, steps), propagate_single_photon(schedule)):
            assert (u[np.ix_(OUTER, OUTER)].imag == 0).all()
            assert (u[MODE_CENTRAL, OUTER].real == 0).all() and (u[OUTER, MODE_CENTRAL].real == 0).all()

    @pytest.mark.parametrize("steps", [1000, 272, 544])
    def test_fourth_order_convergence(self, schedule, steps):
        # the extrapolant's factor 1/15 assumes the CF4 error ~ h^4. It holds from the ladder's
        # second level (ratios 16.51 at 272 and 16.12 at 544); at N0 = 136 the ratio is 18.58, so
        # the first extrapolant is pre-asymptotic, and the h^6 estimate against it absorbs that
        u = {n: _cf4_transfer(schedule, n) for n in (steps, 2 * steps, 4 * steps)}
        ratio = np.abs(u[steps] - u[2 * steps]).max() / np.abs(u[2 * steps] - u[4 * steps]).max()
        assert 15.0 < ratio < 17.0

    def test_sixth_order_extrapolant(self, schedule):
        # the estimate's factor 1/63 assumes the extrapolant's error ~ h^6
        x = {n: extrapolated(schedule, n) for n in (1000, 2000, 4000)}
        ratio = np.abs(x[1000] - x[2000]).max() / np.abs(x[2000] - x[4000]).max()
        assert 50.0 < ratio < 80.0

    def test_agrees_with_rk4_oracle(self, schedule):
        small = dataclasses.replace(schedule, steps=6000)
        rk4 = rk4_transfer(small, 6000)
        rk4_halved = rk4_transfer(small, 12000)
        bound = np.abs(rk4 - rk4_halved).max()
        assert np.abs(propagate_single_photon(small) - rk4_halved).max() <= bound

    def test_memory_independent_of_steps(self, schedule):
        def peak_bytes(sched: PulseSchedule) -> int:
            adiabatic.propagate_single_photon.cache_clear()
            tracemalloc.start()
            try:
                propagate_single_photon(sched)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the 10x couplings run the ladder up to 4352 = CHUNK_STEPS + 256 under the lower cap, and
        # under the higher one up to 17408 = 4.25 CHUNK_STEPS, where the estimate meets the target
        strong = strong_pulse_schedule()
        base = peak_bytes(dataclasses.replace(strong, steps=2 * CHUNK_STEPS))
        assert peak_bytes(dataclasses.replace(strong, steps=16 * CHUNK_STEPS)) <= 1.2 * base


class TestTransferCache:
    def test_two_loads_of_one_file_propagate_once(self, tmp_path, schedule, cf4_steps):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule.to_dict()))
        first = propagate_single_photon(load_schedule(path))
        levels = list(cf4_steps)
        second = propagate_single_photon(load_schedule(path))
        assert levels == [136, 272, 544, 1088, 2176]
        assert cf4_steps == levels
        assert second is first

    @pytest.mark.parametrize(
        "change",
        [
            lambda s: dataclasses.replace(s, steps=s.steps + 1),
            lambda s: s.dilate(1.0 + 2.0**-20),
            lambda s: dataclasses.replace(
                s, east=dataclasses.replace(s.east, center=math.nextafter(s.east.center, math.inf))
            ),
        ],
        ids=["steps", "dilate", "one-ulp-centre"],
    )
    def test_changed_schedule_misses(self, schedule, cf4_steps, change):
        propagate_single_photon(schedule)
        calls = len(cf4_steps)
        changed = change(schedule)
        assert changed != schedule
        propagate_single_photon(changed)
        assert len(cf4_steps) > calls

    def test_hit_is_bit_identical_and_read_only(self, schedule):
        adiabatic.propagate_single_photon.cache_clear()
        cold = propagate_single_photon(schedule)
        hit = propagate_single_photon(schedule)
        assert hit is cold
        adiabatic.propagate_single_photon.cache_clear()
        assert np.array_equal(hit, propagate_single_photon(schedule))
        assert not hit.flags.writeable
        with pytest.raises(ValueError):
            hit[0, 0] = 0.0

    def test_abort_is_not_cached(self, cf4_steps):
        strong = strong_pulse_schedule()
        u136, u272, u544 = (_cf4_transfer(strong, n) for n in (136, 272, 544))
        estimate = np.abs(extrapolant(u544, u272) - extrapolant(u272, u136)).max() / 63.0
        cf4_steps.clear()
        with pytest.raises(IntegrationError, match=f"estimate {estimate:.3e} exceeds"):
            propagate_single_photon(strong)
        assert cf4_steps == [136, 272, 544]
        with pytest.raises(IntegrationError):
            propagate_single_photon(strong)
        assert cf4_steps == 2 * [136, 272, 544]

    def test_abort_edge(self, cf4_steps, monkeypatch):
        # the estimate cannot be chosen, so the bound moves onto it: it passes there and fails one float under
        strong = strong_pulse_schedule()
        u136, u272, u544 = (_cf4_transfer(strong, n) for n in (136, 272, 544))
        estimate = np.abs(extrapolant(u544, u272) - extrapolant(u272, u136)).max() / 63.0
        monkeypatch.setattr(adiabatic, "STEP_ERROR_ABORT", estimate)
        propagate_single_photon(strong)
        adiabatic.propagate_single_photon.cache_clear()
        below = math.nextafter(estimate, 0.0)
        monkeypatch.setattr(adiabatic, "STEP_ERROR_ABORT", below)
        message = rf"^step-doubling error estimate {estimate:.3e} exceeds {below:g}$"
        with pytest.raises(IntegrationError, match=message):
            propagate_single_photon(strong)

    def test_entries_stay_within_the_bound(self):
        adiabatic.propagate_single_photon.cache_clear()
        for steps in range(320, 320 + TRANSFER_CACHE_ENTRIES + 5):
            propagate_single_photon(dataclasses.replace(idle_schedule(), steps=steps))
        info = adiabatic.propagate_single_photon.cache_info()
        assert info.maxsize == TRANSFER_CACHE_ENTRIES
        assert info.currsize == TRANSFER_CACHE_ENTRIES


class TestDarkHolonomy:
    def test_idle_schedule_gives_identity_block(self):
        block, leakage = dark_holonomy(idle_schedule(), 2)
        assert np.abs(block - np.eye(3)).max() == 0.0
        assert leakage == 0.0

    def test_single_photon_block_is_rotation(self, dark_blocks):
        block, leakage = dark_blocks[1]
        assert leakage < 1e-3
        phi = fit_rotation_phase(block, 1)
        assert abs(phi) > 0.05
        assert np.abs(block - single_mode_rotation(phi)).max() < 1e-3

    def test_two_photon_block_matches_u3(self, dark_blocks):
        block, leakage = dark_blocks[2]
        assert leakage < 1e-3
        phi = fit_rotation_phase(block, 2)
        assert np.abs(block - u3(phi)).max() < 1e-3

    def test_fitted_phases_agree_across_photon_sectors(self, dark_blocks):
        phi1 = fit_rotation_phase(dark_blocks[1][0], 1)
        phi2 = fit_rotation_phase(dark_blocks[2][0], 2)
        assert abs(phi1 - phi2) < 1e-3

    @pytest.mark.parametrize("photons", [1, 2, 3, 4])
    def test_matches_projected_four_mode_lift(self, schedule, transfer, photons):
        block, leakage = dark_holonomy(schedule, photons)
        expected_block, expected_leakage = four_mode_dark_block(transfer, photons)
        assert np.abs(block - expected_block).max() < 1e-12
        assert leakage == pytest.approx(expected_leakage, abs=1e-12)

    @pytest.mark.parametrize("photons", [0, MAX_LIFT_PHOTONS + 1, 2.5, 2.0])
    def test_bad_photon_count_rejected_before_propagating(self, schedule, cf4_steps, photons):
        with pytest.raises(ValueError, match="photon_count must be (in|an integer)"):
            dark_holonomy(schedule, photons)
        assert cf4_steps == []

    def test_nan_singular_value_gives_nan_leakage(self, monkeypatch):
        # multimode_lift rejects a non-finite facet block first, so only a broken SVD gets here
        monkeypatch.setattr(np.linalg, "svd", lambda a, compute_uv=True: np.array([1.0, math.nan]))
        assert math.isnan(dark_holonomy(idle_schedule(), 2)[1])

    def test_reversed_schedule_inverts_phase(self, schedule, dark_blocks):
        phi_forward = fit_rotation_phase(dark_blocks[1][0], 1)
        block_rev, _ = dark_holonomy(reversed_schedule(schedule), 1)
        phi_backward = fit_rotation_phase(block_rev, 1)
        assert abs(phi_forward + phi_backward) < 1e-3


class TestFacetBlock:
    def test_read_only_slice_of_the_one_propagation(self, schedule, cf4_steps):
        block = facet_block(schedule)
        levels = list(cf4_steps)
        assert np.array_equal(block, propagate_single_photon(schedule)[np.ix_([MODE_EAST, MODE_WEST],
                                                                               [MODE_EAST, MODE_WEST])])
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.0
        assert np.array_equal(facet_block(schedule), block)
        dark_holonomy(schedule, 2)
        assert levels == [136, 272, 544, 1088, 2176]
        assert cf4_steps == levels

    def test_dark_holonomy_lifts_the_facet_block(self, schedule, dark_blocks):
        assert np.array_equal(dark_blocks[1][0], facet_block(schedule))


class TestFieldVector:
    def test_fields_order(self, schedule):
        east, west, aux = schedule.east, schedule.west, schedule.aux
        assert adiabatic.PROFILES == ("east", "west", "aux")
        assert schedule.profiles == (east, west, aux)
        assert schedule.fields() == (east.peak, east.center, east.sigma, west.peak, west.center, west.sigma,
                                     aux.peak, aux.center, aux.sigma, -17.0, 17.0)

    def test_round_trip_is_equal_and_served_from_the_cache(self, schedule, cf4_steps):
        first = propagate_single_photon(schedule)
        calls = len(cf4_steps)
        values = schedule.fields()
        for vector in (values, list(values), np.array(values), [np.float64(v) for v in values]):
            rebuilt = schedule.with_fields(vector)
            assert rebuilt == schedule and hash(rebuilt) == hash(schedule)
            assert all(type(value) is float for value in rebuilt.fields())
            assert propagate_single_photon(rebuilt) is first
        assert len(cf4_steps) == calls

    def test_steps_stay_outside_the_vector(self, schedule):
        capped = dataclasses.replace(schedule, steps=6000)
        assert capped.fields() == schedule.fields()
        assert capped.with_fields(schedule.fields()).steps == 6000

    @settings(max_examples=60)
    @given(
        sched=st.builds(pulse_schedule, profiles, profiles, profiles, st.floats(0.0, 15.0)),
        scale=st.floats(min_value=1e-3, max_value=1e3) | st.sampled_from([2, np.float64(0.7)]),
    )
    @example(sched=default_schedule(), scale=1.0 + 2.0**-20)
    @example(sched=default_schedule(), scale=1e307)  # the span's length overflows
    @example(sched=default_schedule(), scale=1e308)  # sigma overflows
    @example(sched=default_schedule(), scale=5e-324)  # sigma underflows to 0
    def test_dilate_is_bit_identical_to_the_hand_built_dilation(self, sched, scale):
        expected = outcome(lambda: hand_dilated(sched, scale))
        event(expected[0])
        assert outcome(lambda: sched.dilate(scale)) == expected
        if expected[0] == "ok":
            assert hash(sched.dilate(scale)) == hash(hand_dilated(sched, scale))

    @pytest.mark.parametrize("position", range(11))
    @pytest.mark.parametrize("bad", [math.nan, -1.0, True, "1"], ids=["nan", "minus-one", "true", "text"])
    def test_bad_value_raises_the_constructors_error(self, schedule, position, bad):
        values = list(schedule.fields())
        values[position] = bad

        def by_hand():
            east, west, aux = (CouplingProfile(peak=values[k], center=values[k + 1], sigma=values[k + 2])
                               for k in (0, 3, 6))
            return PulseSchedule(east, west, aux, (values[9], values[10]), schedule.steps)

        expected = outcome(by_hand)
        assert outcome(lambda: schedule.with_fields(values)) == expected
        if bad != -1.0:  # NaN, a bool and text are no real at any position
            name = (["peak", "center", "sigma"] * 3 + ["z_span"] * 2)[position]
            assert expected[0] == "error" and expected[1].startswith(f"{name} must be finite")

    @pytest.mark.parametrize("count", [0, 9, 10, 12])
    def test_wrong_length_is_named(self, schedule, count):
        values = (schedule.fields() * 2)[:count]
        with pytest.raises(ScheduleError, match=rf"^fields must be 11 reals, got {count} values$"):
            schedule.with_fields(values)


class TestFitRotationPhase:
    @pytest.mark.parametrize("phi", [-1.2, -0.4, 0.0, 0.3, 1.4])
    def test_recovers_exact_single_photon_rotation(self, phi):
        assert fit_rotation_phase(single_mode_rotation(phi), 1) == pytest.approx(phi, abs=1e-13)

    @pytest.mark.parametrize("phi", [-0.4, 0.3, 1.0])
    def test_recovers_exact_two_photon_rotation(self, phi):
        assert fit_rotation_phase(u3(phi), 2) == pytest.approx(phi, abs=1e-13)

    @pytest.mark.parametrize("phi", [-1.2, -0.4, 0.3, 1.4])
    def test_recovers_exact_six_photon_rotation(self, phi):
        block = fock_lift(single_mode_rotation(phi), 6)
        assert fit_rotation_phase(block, 6) == pytest.approx(phi, abs=1e-13)

    @pytest.mark.parametrize("photons", [1, 2, 3])
    @pytest.mark.parametrize("phi", [0.5 * math.pi - 1e-3, -0.5 * math.pi + 1e-3, -0.5 * math.pi - 1e-3])
    def test_rotation_at_the_window_edges(self, photons, phi):
        # even P: the score has period pi, so the result is the representative in [-pi/2, pi/2);
        # odd P: lift(R(phi + pi)) = -lift(R(phi)), so the period is 2 pi and the result is phi itself
        expected = phi + math.pi if photons % 2 == 0 and phi <= -0.5 * math.pi else phi
        block = fock_lift(single_mode_rotation(phi), photons)
        assert fit_rotation_phase(block, photons) == pytest.approx(expected, abs=1e-13)

    # grid peak spreads 6.1e-7, under the old fixed 1e-6 margin, and 8.1e-6, which only the derived one covers
    @pytest.mark.parametrize("alpha, spread", [(1.56955, (0.0, 1e-6)), (1.5703, (1e-6, 1e-5))])
    def test_refines_every_near_maximal_grid_peak(self, phase_searches, alpha, spread):
        # the score cos(4(phi - theta)) + eps cos(2(phi - theta) - alpha) has two maxima about pi/2
        # apart whose heights differ by 2 eps cos(alpha) (1.2e-5 or 5.0e-6); the lower one lies near a
        # grid point and the higher one between two, so the grid's argmax sits on the lower peak
        eps, theta = 0.005, 0.8755 - math.pi / 1440
        family = RotationFamily(4)  # charges -4, -2, 0, 2, 4
        c = np.array([0.0, 0.0, 0.0, eps * np.exp(-1j * (2.0 * theta + alpha)), np.exp(-4j * theta)])
        block = family.vectors @ np.diag(c) @ family.vectors.conj().T

        def score(phi):
            return (family.phases(phi).conj() @ c).real

        grid = -0.5 * math.pi + np.arange(720) * math.pi / 720
        values = score(grid)
        peaks = np.flatnonzero((values >= np.roll(values, 1)) & (values >= np.roll(values, -1)))
        fine = -0.5 * math.pi + np.arange(1 << 16) * math.pi / (1 << 16)
        best = fine[np.argmax(score(fine))]
        assert len(peaks) == 2 and spread[0] < np.ptp(values[peaks]) < spread[1]
        assert abs(grid[np.argmax(values)] - best) > 1.0
        phi = fit_rotation_phase(block, 4)
        assert np.ptp(values[peaks]) <= phase_searches[-1][-1]  # the derived margin keeps both candidates
        assert phi == pytest.approx(best, abs=math.pi / (1 << 16))
        assert score(phi) >= score(fine).max()

    @pytest.mark.parametrize("photons", [1, 3, 5])
    @pytest.mark.parametrize("phi", [2.0, -2.5, 3.0, math.pi - 1e-3, -math.pi + 1e-3])
    def test_odd_photon_rotation_beyond_half_pi(self, photons, phi):
        # lift(R(phi + pi)) = -lift(R(phi)): an odd-P score has period 2 pi, and any phi in [-pi, pi) is its own fit
        block = fock_lift(single_mode_rotation(phi), photons)
        assert fit_rotation_phase(block, photons) == pytest.approx(phi, abs=1e-13)

    @pytest.mark.parametrize("photons", [2, 4])
    @pytest.mark.parametrize("phi", [0.5 * math.pi, -0.5 * math.pi])
    def test_even_photon_rotation_by_half_pi_stays_in_the_window(self, photons, phi):
        fitted = fit_rotation_phase(fock_lift(single_mode_rotation(phi), photons), photons)
        assert -0.5 * math.pi <= fitted < 0.5 * math.pi
        assert abs(math.remainder(fitted - phi, math.pi)) < 1e-13

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.floats(-math.pi, math.pi, exclude_max=True))
    def test_fit_lies_in_its_window_and_recovers_the_phase(self, photons, phi):
        period = math.pi * (1 + photons % 2)
        fitted = fit_rotation_phase(fock_lift(single_mode_rotation(phi), photons), photons)
        assert -0.5 * period <= fitted < 0.5 * period
        assert abs(math.remainder(fitted - phi, period)) < 1e-13

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.floats(-math.pi, math.pi))
    def test_search_ends_above_its_grid_and_slopes_match_the_score(self, phase_searches, photons, seed, x):
        rng = np.random.default_rng(seed)
        block = rng.normal(size=(photons + 1,) * 2) + 1j * rng.normal(size=(photons + 1,) * 2)
        fitted = fit_rotation_phase(block, photons)
        score, slopes, start, period, points, _ = phase_searches[-1]
        assert score(fitted) >= score(start + np.arange(points) * period / points).max() - 1e-12  # the tie tolerance
        # sum |block| bounds sum |c_m|, so the score's n-th derivative is below P^n of it
        h, bound = 1e-3, np.abs(block).sum()
        down, mid, up = score(np.array([x - h, x, x + h]))
        slope, curvature = (value[0] for value in slopes(np.array([x])))
        assert slope == pytest.approx((up - down) / (2.0 * h), abs=1e-6 * photons**3 * bound)
        assert curvature == pytest.approx((up - 2.0 * mid + down) / h**2, abs=1e-6 * photons**4 * bound)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 2), (3,), (2, 2, 2)])
    def test_rejects_block_of_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"block must be 3x3 for 2 photons"):
            fit_rotation_phase(np.zeros(shape), 2)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_block(self, value):
        block = u3(0.3)
        block[1, 2] = value
        with pytest.raises(ValueError, match="block has non-finite entries"):
            fit_rotation_phase(block, 2)

    @pytest.mark.parametrize("photons, off_diagonal", [(1, False), (2, False), (3, False), (2, True)])
    def test_rejects_block_without_rotation_content(self, photons, off_diagonal):
        # a zero score has every phase as its maximum; so does a block that is off-diagonal in the
        # family's eigenbasis, whose c_m = <v_m|block|v_m> vanish to rounding (about 4e-16)
        block = np.zeros((photons + 1,) * 2)
        if off_diagonal:
            vectors = RotationFamily(photons).vectors
            block = vectors @ np.roll(np.eye(photons + 1), 1, axis=0) @ vectors.conj().T
        with pytest.raises(ValueError, match="block has no rotation content"):
            fit_rotation_phase(block, photons)


class TestLandauZener:
    def test_four_percent_working_point(self):
        assert lz_error(2.27661) == pytest.approx(0.0400, abs=1e-4)

    def test_limit_at_large_area(self):
        assert lz_error(500.0) < 1e-300
        assert lz_error(2000.0) == 0.0
        assert lz_error(20.0) < 1e-12

    def test_u3_total_estimate(self):
        assert 2.0 * lz_error(2.27661) == pytest.approx(0.08, abs=2e-4)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            lz_error(0.0)

    @pytest.mark.parametrize("omega_t, message", [(-1.0, "^omega_t must be positive, got"),
                                                  (math.nan, "^omega_t must be finite, got")])
    def test_rejects_negative_and_nan(self, omega_t, message):
        with pytest.raises(ValueError, match=message):
            lz_error(omega_t)


class TestDiabaticScan:
    def test_doubling_area_reduces_leakage(self, schedule):
        leak = {omega_t: scan_leakage(schedule.dilate(omega_t / 10.0)) for omega_t in (2.5, 5.0)}
        assert leak[5.0] < leak[2.5]
        assert scan_leakage(schedule) < leak[5.0]

    def test_scan_pairs_numeric_with_analytic(self, schedule):
        small = dataclasses.replace(schedule, steps=6000)
        rows = diabatic_scan(small, [2.5, 3.5, 4.5])
        assert [r[0] for r in rows] == [2.5, 3.5, 4.5]
        leaks = [r[1] for r in rows]
        assert leaks[0] > leaks[1] > leaks[2] > 0.0
        for omega_t, _, analytic in rows:
            assert analytic == pytest.approx(lz_error(omega_t), abs=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -2.0, "3.0", True, 10**400])
    def test_every_point_checked_before_propagating(self, schedule, cf4_steps, bad):
        with pytest.raises(ValueError, match="^omega_t must be (finite|positive), got"):
            diabatic_scan(schedule, [3.0, bad])
        assert cf4_steps == []


class TestScheduleValidation:
    def test_zero_peak_rejected(self):
        with pytest.raises(ScheduleError):
            CouplingProfile(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("sigma", [0.0, -1.0])
    def test_non_positive_sigma_rejected_by_check_positive(self, sigma):
        with mock.patch.object(adiabatic, "check_positive", wraps=adiabatic.check_positive) as spy:
            with pytest.raises(ScheduleError, match=rf"^sigma must be positive, got {sigma}$"):
                CouplingProfile(1.0, 0.0, sigma)
        assert spy.call_args_list == [mock.call("peak", 1.0, ScheduleError), mock.call("sigma", sigma, ScheduleError)]

    def test_peak_is_checked_before_center(self):
        with pytest.raises(ScheduleError, match=r"^peak must be positive, got -1$"):
            CouplingProfile(-1, math.nan, 1.0)

    def test_boundary_condition_enforced(self):
        wide = CouplingProfile(1.0, 0.0, 10.0)
        with pytest.raises(ScheduleError):
            PulseSchedule(wide, far_profile(), far_profile(), (-10.0, 10.0), steps=64)

    def test_bad_span_rejected(self):
        with pytest.raises(ScheduleError):
            PulseSchedule(far_profile(), far_profile(), far_profile(), (10.0, -10.0), steps=64)

    @pytest.mark.parametrize("field", ["peak", "center", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_profile_rejected(self, field, value):
        fields = {"peak": 1.0, "center": 0.0, "sigma": 1.0, field: value}
        with pytest.raises(ScheduleError, match=f"{field} must be finite"):
            CouplingProfile(**fields)

    @pytest.mark.parametrize("z_span", [(math.nan, 10.0), (-10.0, math.inf)])
    def test_non_finite_span_rejected(self, z_span):
        with pytest.raises(ScheduleError, match="z_span must be finite"):
            PulseSchedule(far_profile(), far_profile(), far_profile(), z_span, steps=64)

    @pytest.mark.parametrize("steps", [15, MAX_STEPS + 1, 10**12])
    def test_steps_out_of_range_rejected(self, steps):
        with pytest.raises(ScheduleError, match="steps"):
            PulseSchedule(far_profile(), far_profile(), far_profile(), (-10.0, 10.0), steps=steps)

    def test_steps_bound_accepted(self):
        PulseSchedule(far_profile(), far_profile(), far_profile(), (-10.0, 10.0), steps=MAX_STEPS)

    @pytest.mark.parametrize("steps", [math.inf, math.nan])
    def test_non_finite_steps_rejected(self, schedule, steps):
        data = schedule.to_dict()
        data["steps"] = steps
        with pytest.raises(ScheduleError):
            schedule_from_dict(data)

    @pytest.mark.parametrize("steps", [100.5, "100", None])
    def test_non_integral_steps_rejected(self, steps):
        with pytest.raises(ScheduleError, match="steps must be an integer"):
            PulseSchedule(far_profile(), far_profile(), far_profile(), (-10.0, 10.0), steps=steps)

    @pytest.mark.parametrize("steps", [36000.5, "36000"])
    def test_non_integral_steps_rejected_from_dict(self, schedule, steps):
        data = schedule.to_dict()
        data["steps"] = steps
        with pytest.raises(ScheduleError, match="steps must be an integer"):
            schedule_from_dict(data)

    def test_integral_float_steps_load_as_int(self, schedule):
        data = schedule.to_dict()
        data["steps"] = 36000.0
        loaded = schedule_from_dict(data)
        assert loaded.steps == 36000 and isinstance(loaded.steps, int)

    def test_malformed_dict_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_dict({"east": {"peak": 1.0}})

    def test_editing_to_dict_leaves_the_schedule(self):
        schedule = default_schedule()
        peak, key = schedule.east.peak, hash(schedule)
        data = schedule.to_dict()
        data["east"]["peak"] = 1.0
        data["z_span"][0] = 0.0
        assert schedule.east.peak == peak and schedule.z_span == (-17.0, 17.0)
        assert hash(schedule) == key and schedule == default_schedule()

    def test_round_trip_through_json(self, tmp_path, schedule):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule.to_dict()))
        loaded = load_schedule(path)
        assert loaded == schedule

    def test_dilation_scales_lengths_only(self, schedule):
        stretched = schedule.dilate(2.0)
        assert stretched.east.peak == schedule.east.peak
        assert stretched.east.sigma == 2.0 * schedule.east.sigma
        assert stretched.z_span == (2.0 * schedule.z_span[0], 2.0 * schedule.z_span[1])
        assert stretched.omega_t == pytest.approx(2.0 * schedule.omega_t)

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_dilation_rejects_non_finite_scale(self, schedule, scale):
        with pytest.raises(ScheduleError, match="scale must be finite"):
            schedule.dilate(scale)

    @pytest.mark.parametrize("scale, shown", [(0, "0"), (-0.0, "-0.0"), (-2, "-2")])
    def test_dilation_rejects_non_positive_scale(self, schedule, scale, shown):
        with pytest.raises(ScheduleError, match=rf"^scale must be positive, got {shown}$"):
            schedule.dilate(scale)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScheduleError):
            load_schedule(path)
