"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  All tolerances are pinned here; nothing is
deferred to later calibration.
"""

import json

import numpy as np
import pytest

from qsdsim import (NoiseStream, SimulationConfig, analytic_offdiagonal,
                    compare_ensemble_to_master,
                    equivalence_report, gauge_transform, integrate_master,
                    lindblad_from_hamiltonian, lindblad_rhs,
                    norm_defect_samples, psd_master_rhs, pure_projector,
                    qsd_step, run_ensemble, sample_dxi, sample_dxi_block)
from qsdsim.cli import main
from conftest import (pairs, random_density, random_hermitian,
                      variance_rise_z)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} -- {detail}"


def test_criterion_01_planck_time(capsys):
    code = main(["constants"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    t_pl = payload["planck_time_s"]
    ok = code == 0 and round(t_pl * 1e44) == 5 \
        and abs(t_pl - 5.39e-44) < 0.005e-44
    report(1, "constants reports sqrt(hbar G / c^5) = 5.39e-44 s", ok,
           f"value {t_pl:.4e} s")


def test_criterion_02_noise_moments():
    n, dt = 1_000_000, 1e-3
    dxi = sample_dxi_block(dt, n, NoiseStream(20260808))
    mean_ok = abs(dxi.mean()) < 4.0 * np.sqrt(dt / n)
    square_ok = abs((dxi ** 2).mean()) < 4.0 * dt / np.sqrt(n)
    abs_sq = np.mean(np.abs(dxi) ** 2)
    abs_ok = abs(abs_sq - dt) < 4.0 * dt / np.sqrt(n)
    report(2, "1e6 complex increments satisfy all three moment conditions",
           mean_ok and square_ok and abs_ok,
           f"mean |dxi|^2 = {abs_sq:.6e} vs dt = {dt}")


def test_criterion_03_algebraic_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        h = random_hermitian(rng, n)
        rho = random_density(rng, n)
        tau0 = float(rng.uniform(0.05, 3.0))
        lop = lindblad_from_hamiltonian(h, tau0)
        worst = max(worst, float(np.max(np.abs(
            psd_master_rhs(rho, h, tau0) - lindblad_rhs(rho, lop)))))
    report(3, "hamiltonian-driven master RHS equals dissipator of built L",
           worst < 1e-12, f"max entrywise deviation {worst:.2e}")


def test_criterion_04_unraveling_consistency():
    # dt = 1e-3 of the decoherence scale hbar^2/(tau0 dE^2); the run covers
    # one decoherence time 2 hbar^2/(tau0 dE^2)
    tau0, de = 0.4, 1.0
    scale = 1.0 / (tau0 * de ** 2)
    config = SimulationConfig(
        hamiltonian=np.diag([0.5, -0.5]),
        initial_state=np.array([1, 1]) / np.sqrt(2),
        tau0=tau0, dt=1e-3 * scale, t_final=2.0 * scale,
        n_trajectories=2000, master_seed=404, record_stride=20)
    summary = run_ensemble(config, workers=4)
    dist = compare_ensemble_to_master(summary)
    worst = float(np.max(dist))
    report(4, "M=2000 ensemble within 0.05 trace distance of the master solution",
           worst < 0.05, f"max distance {worst:.4f}")


def test_criterion_05_analytic_decoherence():
    h = np.diag([1.0, -1.0])
    tau0 = 0.25
    t_dec = 2.0 / (tau0 * 2.0 ** 2)
    rho0 = pure_projector(np.array([1, 1]) / np.sqrt(2))
    _, states = integrate_master(
        rho0, lambda r: psd_master_rhs(r, h, tau0), 0.005, 3.0 * t_dec)
    exact = analytic_offdiagonal(0.5, 1.0, -1.0, tau0, 3.0 * t_dec)
    rel = abs(states[-1][0, 1] - exact) / abs(exact)
    report(5, "RK4 off-diagonal matches closed form at 3 decoherence times",
           rel < 1e-6, f"relative error {rel:.2e}")


def test_criterion_06_localization_and_born_rule():
    # 40 decoherence times so that all 5000 trajectories commit
    config = SimulationConfig(
        hamiltonian=np.diag([1.0, -1.0]),
        initial_state=np.array([np.sqrt(0.8), np.sqrt(0.2)]),
        tau0=0.5, dt=1e-3, t_final=40.0,
        n_trajectories=5000, master_seed=2026, record_stride=1000)
    summary = run_ensemble(config, workers=4, retain=range(5000))
    var_max = summary.terminal_variances.max()
    var_ok = var_max < 1e-6 * 2.0 ** 2
    # eigenvalues ascend, so the initially 0.8-populated level (+1) is index 1
    freq = summary.born_frequencies[1]
    halfwidth = 4.0 * np.sqrt(0.8 * 0.2 / 5000)
    born_ok = abs(freq - 0.8) <= halfwidth
    max_z = variance_rise_z(summary)
    mono_ok = max_z <= 4.0
    report(6, "5000 trajectories localize with Born-rule frequencies",
           var_ok and born_ok and mono_ok,
           f"max terminal Var {var_max:.2e}, "
           f"freq {freq:.4f} vs 0.8 +- {halfwidth:.4f}, "
           f"monotonicity z {max_z:.2f}")


def test_criterion_07_spacetime_equivalence():
    rep = equivalence_report(n_samples=500, seed=7, dt=1e-10, tolerance=1e-12)
    report(7, "fluctuating-time step equals diffusion step; perturbed "
              "completion detected",
           rep["passed"],
           f"max deviation {rep['max_deviation']:.2e}, "
           f"perturbed defect min {rep['perturbed_defect_min']:.2e}")


def test_criterion_08_gauge_invariance():
    rng = np.random.default_rng(8)
    lop = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = np.exp(1.234j)
    psi_a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi_a /= np.linalg.norm(psi_a)
    psi_b = psi_a.copy()
    stream = NoiseStream(808)
    worst_path = 0.0
    for _ in range(300):
        dxi = sample_dxi(1e-3, stream)
        psi_a = qsd_step(psi_a, lop, dxi, 1e-3)
        psi_b = qsd_step(psi_b, gauge_transform(lop, u), np.conj(u) * dxi, 1e-3)
        worst_path = max(worst_path, float(np.max(np.abs(psi_a - psi_b))))
    rho = random_density(rng, 3)
    rhs_dev = float(np.max(np.abs(lindblad_rhs(rho, lop)
                                  - lindblad_rhs(rho, gauge_transform(lop, u)))))
    report(8, "gauge-rotated L with matched noise is pathwise identical",
           worst_path < 1e-13 and rhs_dev < 1e-14,
           f"path deviation {worst_path:.2e}, master RHS deviation {rhs_dev:.2e}")


def test_criterion_09_norm_discipline():
    psi = np.array([1, 1]) / np.sqrt(2)
    h = np.diag([3.0, -3.0])
    coarse = norm_defect_samples(psi, h, 1.0, 0.01, 1_000_000,
                                 NoiseStream(909, 0)).mean()
    fine = norm_defect_samples(psi, h, 1.0, 0.005, 1_000_000,
                               NoiseStream(909, 1)).mean()
    ratio = coarse / fine
    report(9, "pre-renormalization norm defect falls 4x under dt halving",
           4.0 / 1.3 < ratio < 4.0 * 1.3, f"ratio {ratio:.3f}")


def test_criterion_10_determinism_across_workers(tmp_path, capsys):
    data = {
        "units": "natural",
        "hamiltonian": pairs(np.diag([0.5, -0.5])),
        "initial_state": pairs(np.array([1, 1]) / np.sqrt(2)),
        "tau0": 0.4,
        "dt": 2.5e-3,
        "t_final": 1.0,
        "n_trajectories": 1030,   # spans three trajectory batches
        "master_seed": 10,
        "record_stride": 40,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(data))
    out_1, out_8 = tmp_path / "w1", tmp_path / "w8"
    code_1 = main(["ensemble", "--config", str(config_path),
                   "--out", str(out_1), "--workers", "1",
                   "--dump-trajectory", "7"])
    code_8 = main(["ensemble", "--config", str(config_path),
                   "--out", str(out_8), "--workers", "8",
                   "--dump-trajectory", "7"])
    capsys.readouterr()
    identical = all(
        (out_1 / name).read_bytes() == (out_8 / name).read_bytes()
        for name in ("summary.json", "ensemble.csv", "trajectory_7.csv"))
    report(10, "fixed seed gives byte-identical outputs for 1 and 8 workers",
           code_1 == 0 and code_8 == 0 and identical,
           "summary.json, ensemble.csv, trajectory_7.csv compared")
