from decimal import Decimal, getcontext

import numpy as np
import pytest

from qsdsim import (InvalidParameterError, NoiseStream, SimulationConfig,
                    align_global_phase, decoherence_rate,
                    delta_e_from_height, delta_e_from_velocities,
                    equivalence_report, fluctuating_time_step,
                    fluctuation_time_constant, ito_norm_defect, normalize,
                    norm_completion, planck_time, psd_step, run_trajectory,
                    sample_dxi_block)
from qsdsim import spacetime
from qsdsim.spacetime import NormCompletion
from conftest import random_hermitian, random_state


class TestPlanckTime:
    def test_codata_value(self):
        t_pl = planck_time()
        assert t_pl == pytest.approx(5.39e-44, rel=5e-3)
        # one significant figure: ~5e-44 s
        assert round(t_pl * 1e44) == 5

    def test_against_high_precision_reference(self):
        getcontext().prec = 50
        ref = (Decimal(repr(spacetime.HBAR)) * Decimal(repr(spacetime.G))
               / Decimal(repr(spacetime.C_LIGHT)) ** 5).sqrt()
        assert planck_time() == pytest.approx(float(ref), rel=1e-15)


class TestFluctuationTimeConstant:
    def test_unit_factor(self):
        assert fluctuation_time_constant(1.0) == planck_time()

    def test_two_pi(self):
        assert fluctuation_time_constant(2 * np.pi) == pytest.approx(3.39e-43, rel=2e-3)

    def test_nonpositive_rejected(self):
        for c in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidParameterError):
                fluctuation_time_constant(c)


class TestNormCompletion:
    def test_eigenstate(self):
        h = np.diag([2.0, 5.0])
        psi = np.array([0, 1], dtype=complex)
        comp = norm_completion(h, psi, tau1=4.0)
        assert comp.s == pytest.approx(2.0 * 5.0)  # sqrt(tau1) <H>
        # Hd annihilates the eigenstate, so the drift counter-term acts
        # trivially on it (R itself is nonzero off the eigenstate)
        assert np.max(np.abs(comp.r @ psi)) < 1e-12

    def test_traceless_equal_superposition(self):
        h = np.diag([1.5, -1.5])
        psi = np.array([1, 1]) / np.sqrt(2)
        tau1 = 0.8
        comp = norm_completion(h, psi, tau1)
        assert abs(comp.s) < 1e-12
        assert np.allclose(comp.r, -(tau1 / 2) * (h @ h), atol=1e-14)

    def test_defect_vanishes_for_correct_completion(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            h = random_hermitian(rng, n)
            psi = random_state(rng, n)
            tau1 = float(rng.uniform(0.1, 2.0))
            drift, noise = ito_norm_defect(h, psi, norm_completion(h, psi, tau1), tau1)
            assert abs(drift) < 1e-10
            assert noise < 1e-10

    def test_perturbed_completion_detected(self, rng):
        # 1% perturbation of either counter-term leaves a residue > 1e-4
        h = random_hermitian(rng, 3) + 2.5 * np.eye(3)
        psi = random_state(rng, 3)
        tau1 = 1.0
        comp = norm_completion(h, psi, tau1)
        for bad in (NormCompletion(s=1.01 * comp.s, r=comp.r),
                    NormCompletion(s=comp.s, r=1.01 * comp.r)):
            drift, noise = ito_norm_defect(h, psi, bad, tau1)
            assert abs(drift) + noise > 1e-4


class TestFluctuatingTimeStep:
    def test_zero_hamiltonian_is_identity(self, rng):
        psi = random_state(rng, 3)
        out = fluctuating_time_step(psi, np.zeros((3, 3)), 1.0, 1e-4, 0.01 + 0.02j)
        assert np.max(np.abs(out - psi)) < 1e-15

    def test_matches_diffusion_step_up_to_phase(self, rng):
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 5))
            h = random_hermitian(rng, n)
            psi = random_state(rng, n)
            tau1 = float(rng.uniform(0.1, 2.0))
            dt = 1e-10
            dxi = complex(rng.standard_normal() + 1j * rng.standard_normal()) \
                * np.sqrt(dt / 2)
            fl = fluctuating_time_step(psi, h, tau1, dt, dxi)
            pd = psd_step(psi, h, tau1, dxi, dt)
            worst = max(worst, float(np.max(np.abs(
                align_global_phase(fl, pd) - pd))))
        assert worst < 1e-12

    def test_tau1_zero_recovers_schrodinger_euler(self, rng):
        h = random_hermitian(rng, 2)
        psi = random_state(rng, 2)
        dt = 1e-5
        out = fluctuating_time_step(psi, h, 0.0, dt, 0.01 + 0.03j)
        expected = normalize(psi - 1j * dt * (h @ psi))
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_equivalence_report_passes(self):
        report = equivalence_report(n_samples=100, seed=5)
        assert report["passed"]
        assert report["max_deviation"] < report["tolerance"]
        assert report["norm_defect_max"] < 1e-10
        assert report["perturbed_defect_min"] > 1e-4


class TestFluctuatingTimePath:
    # the fluctuating-time route at trajectory scale: stream k's increments
    # fed through fluctuating_time_step for t = 1 end on the ray of
    # run_trajectory(config, k), the eigenbasis kernel on the same noise,
    # up to an infidelity that falls with dt; with R 1 % off, it does not.
    # (s 1 % off is no control: it moves the state along psi, not the ray)

    @staticmethod
    def infidelity(config, k):
        psi = config.initial_state
        stream = NoiseStream(config.master_seed, k)
        for dxi in sample_dxi_block(config.dt, config.n_steps, stream):
            psi = fluctuating_time_step(psi, config.hamiltonian, config.tau0,
                                        config.dt, dxi)
        final = run_trajectory(config, k).final_state
        return 1.0 - abs(np.vdot(psi, final)) ** 2

    @pytest.mark.parametrize("n", [4, 3])
    def test_path_meets_the_trajectory_as_dt_falls(self, monkeypatch, n):
        # mean over streams 0 and 1: n = 4 2.1e-7, 1.9e-8, 9.6e-9 at dt
        # 2e-3, 1e-3, 5e-4 (8.3e-7 with R off, at 5e-4); n = 3 4.3e-7,
        # 5.5e-8, 1.8e-8 (9.1e-7)
        rng = np.random.default_rng(0)
        h, psi0 = random_hermitian(rng, n), random_state(rng, n)
        h /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(h))))

        def gap(dt):
            config = SimulationConfig(
                hamiltonian=h, initial_state=psi0, tau0=0.4, dt=dt,
                t_final=1.0, n_trajectories=2, master_seed=5)
            return np.mean([self.infidelity(config, k) for k in (0, 1)])

        true = [gap(dt) for dt in (2e-3, 1e-3, 5e-4)]
        assert true[0] > true[1] > true[2] and true[0] > 8 * true[2]
        completion = spacetime.norm_completion

        def r_off(h, psi, tau1):
            exact = completion(h, psi, tau1)
            return NormCompletion(s=exact.s, r=1.01 * exact.r)

        monkeypatch.setattr(spacetime, "norm_completion", r_off)
        off = gap(5e-4)
        assert off > 1e-7 and off > 10 * true[2]


class TestDecoherenceRate:
    def test_zero_gap(self):
        est = decoherence_rate(0.0, planck_time())
        assert est.rate_per_s == 0.0
        assert est.decoherence_time_s == np.inf

    def test_direct_evaluation(self):
        est = decoherence_rate(1e-19, 5.39e-44)
        expected = 5.39e-44 * 1e-38 / (2 * spacetime.HBAR ** 2)
        assert est.rate_per_s == pytest.approx(expected, rel=1e-12)
        assert est.rate_per_s == pytest.approx(2.4e-14, rel=2e-2)

    def test_quadratic_in_gap(self):
        a = decoherence_rate(1e-20, 1e-43).rate_per_s
        b = decoherence_rate(2e-20, 1e-43).rate_per_s
        assert b == pytest.approx(4 * a, rel=1e-12)

    def test_negative_tau0_rejected(self):
        with pytest.raises(InvalidParameterError):
            decoherence_rate(1e-19, -1e-44)


class TestEnergyGapHelpers:
    def test_velocity_form(self):
        assert delta_e_from_velocities(2.0, 3.0, 1.0) == pytest.approx(8.0)

    def test_height_form(self):
        assert delta_e_from_height(1.0, 2.0, g=10.0) == pytest.approx(20.0)
        assert delta_e_from_height(1.0, 1.0) == pytest.approx(9.80665)

    def test_mass_positive(self):
        with pytest.raises(InvalidParameterError):
            delta_e_from_velocities(0.0, 1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            delta_e_from_height(-1.0, 1.0)


class TestArgumentGuards:
    def test_fluctuating_step_rejects_bad_dt(self, rng):
        psi = random_state(rng, 2)
        with pytest.raises(InvalidParameterError):
            fluctuating_time_step(psi, np.eye(2), 1.0, 0.0, 0.01j)

    def test_equivalence_report_needs_a_whole_sample_count(self):
        for n_samples, message in ((0, ">= 1"), (2.5, "whole number"),
                                   (True, "whole number")):
            with pytest.raises(InvalidParameterError, match=message):
                equivalence_report(n_samples=n_samples)

    def test_norm_completion_rejects_negative_tau1(self, rng):
        with pytest.raises(InvalidParameterError):
            norm_completion(np.eye(2), random_state(rng, 2), -0.5)
