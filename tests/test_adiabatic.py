import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holoent.adiabatic import (
    CHUNK_STEPS,
    MAX_STEPS,
    MODE_AUX,
    MODE_EAST,
    MODE_WEST,
    CouplingProfile,
    IntegrationError,
    PulseSchedule,
    ScheduleError,
    _star_exponentials,
    dark_holonomy,
    default_schedule,
    diabatic_scan,
    fit_rotation_phase,
    load_schedule,
    lz_error,
    propagate_single_photon,
    scan_leakage,
    schedule_from_dict,
)
from holoent.holonomy import fock_lift, single_mode_rotation, u3
from propagation_oracle import (
    expm_hermitian,
    four_mode_dark_block,
    hamiltonian_at,
    rk4_transfer,
    star_hamiltonian,
)

FAR = 1.0e6  # a Gaussian centred this far away underflows to exactly zero


def far_profile() -> CouplingProfile:
    return CouplingProfile(peak=1.0, center=FAR, sigma=1.0)


def idle_schedule() -> PulseSchedule:
    """All couplings exactly zero over the propagation window."""
    return PulseSchedule(far_profile(), far_profile(), far_profile(), (-10.0, 10.0), steps=64)


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

    def test_step_halving_convergence(self, schedule, transfer):
        doubled = dataclasses.replace(schedule, steps=2 * schedule.steps)
        u2 = propagate_single_photon(doubled)
        assert np.abs(transfer - u2).max() < 1e-8

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
    def test_star_exponential_matches_eigh(self, couplings, h):
        b = np.zeros(4)
        b[[MODE_EAST, MODE_WEST, MODE_AUX]] = couplings
        expected = expm_hermitian(star_hamiltonian(b), h)
        assert np.abs(_star_exponentials(b, h) - expected).max() < 1e-12

    def test_fourth_order_convergence(self, schedule):
        # the step-doubling estimate's factor 1/15 assumes error ~ h^4
        u = {n: propagate_single_photon(dataclasses.replace(schedule, steps=n))
             for n in (1000, 2000, 4000)}
        ratio = np.abs(u[1000] - u[2000]).max() / np.abs(u[2000] - u[4000]).max()
        assert 15.0 < ratio < 17.0

    def test_agrees_with_rk4_oracle(self, schedule):
        small = dataclasses.replace(schedule, steps=6000)
        rk4 = rk4_transfer(small, 6000)
        rk4_halved = rk4_transfer(small, 12000)
        bound = np.abs(rk4 - rk4_halved).max()
        assert np.abs(propagate_single_photon(small) - rk4_halved).max() <= bound

    def test_memory_independent_of_steps(self, schedule):
        def peak_bytes(steps: int) -> int:
            tracemalloc.start()
            try:
                propagate_single_photon(dataclasses.replace(schedule, steps=steps))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        base = peak_bytes(2 * CHUNK_STEPS)
        assert peak_bytes(16 * CHUNK_STEPS) <= 1.2 * base


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

    def test_reversed_schedule_inverts_phase(self, schedule, dark_blocks):
        phi_forward = fit_rotation_phase(dark_blocks[1][0], 1)
        block_rev, _ = dark_holonomy(schedule.reversed(), 1)
        phi_backward = fit_rotation_phase(block_rev, 1)
        assert abs(phi_forward + phi_backward) < 1e-3


class TestFitRotationPhase:
    # localization of a quadratic maximum is noise-limited near sqrt(eps)
    @pytest.mark.parametrize("phi", [-1.2, -0.4, 0.0, 0.3, 1.4])
    def test_recovers_exact_single_photon_rotation(self, phi):
        assert fit_rotation_phase(single_mode_rotation(phi), 1) == pytest.approx(phi, abs=1e-6)

    @pytest.mark.parametrize("phi", [-0.4, 0.3, 1.0])
    def test_recovers_exact_two_photon_rotation(self, phi):
        assert fit_rotation_phase(u3(phi), 2) == pytest.approx(phi, abs=1e-6)

    @pytest.mark.parametrize("phi", [-1.2, -0.4, 0.3, 1.4])
    def test_recovers_exact_six_photon_rotation(self, phi):
        block = fock_lift(single_mode_rotation(phi), 6)
        assert fit_rotation_phase(block, 6) == pytest.approx(phi, abs=1e-6)


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


class TestScheduleValidation:
    def test_zero_peak_rejected(self):
        with pytest.raises(ScheduleError):
            CouplingProfile(0.0, 0.0, 1.0)

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

    def test_malformed_dict_rejected(self):
        with pytest.raises(ScheduleError):
            schedule_from_dict({"east": {"peak": 1.0}})

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

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScheduleError):
            load_schedule(path)
