"""Mean Var H of the PSD ensemble against its exact law (exact_law.py).

The config: n = 4, H from numpy rng seed 4 scaled to max|E| = 1, a random
psi0, tau0 0.4, t 2, dt 0.0025, M = 20 000 trajectories at master_seed 11,
run by run_ensemble with the final projector only.  The mean of their
terminal Var H must lie within 4 standard errors plus an Euler allowance
of 0.35 dt of the quadrature, 0.25608; it reads -0.00015 with a standard
error of 0.00079.

Power: a relative tau0 error delta moves the mean by about -0.125 delta,
so the check fails at |delta| of about 3.3 % and above (4 standard errors
and the allowance make 0.0040).  Runs at tau0 x 1.05 and x 0.95, judged
against the law at tau0, read z = -7.9 and +7.9, and fail.

Tier-1 time: three runs of 1.2 to 1.7 s each on a loaded 2-CPU host where
tier-1 took 82 s; 0.44 s each where tier-1 took 27 s.

A second config, the README qubit: H = diag(0.5, -0.5), psi0 = (1, 1) /
sqrt(2), the same tau0, t, dt, M and seed; quadrature 0.17583.  It runs at
tau0 only and reads -0.00024 against a gate of 0.00274 (z = -0.5).  Power:
tau0 x 1.05 reads z = -6.4 and would fail, while tau0 x 0.95 reads z = +5.8
and passes the gate, so this config fails a tau0 error of about +5 % but
not of -5 %.  Tier-1 time: 0.8 to 1.0 s on a 2-CPU host, about one run
of the first config there.

The same two runs at tau0 also check the mean energy.  Energy
populations are martingales of the PSD equation, so E[<H>(t)] = <H>(0),
and summary.mean_energy[-1] must lie within 4 sqrt(Var_0 H / M) (an upper
bound on its standard error: Var <H>(t) = Var_0 H - E[Var H(t)]) plus an
Euler allowance of 0.05 dt.  The Euler bias, measured with
M = 4 000 000 at master_seed 11, is -0.028 dt, -0.023 dt and -0.012 dt at
dt 0.1, 0.05 and 0.025 (standard error 0.0003 each) on the random config
and +0.002 dt at dt 0.1 on the qubit (0 by its symmetry).  Here the random
config reads -0.0045 against a gate of 0.0193 (<H>(0) = 0.1659) and the
qubit -0.0028 against 0.0143.

Power: none against a tau0 error, for the martingale holds at any tau0,
and next to none against mutant E (curvature -0.45 tau0 dt, not -0.5, in
both psd_increment and _EigenKernel), which breaks it: with the same
noise, mutant E moves the random config's reading by -0.0012 (to -0.0058)
and the qubit's by -0.00001, both far inside the gate; that shift reaches
4 standard errors only at M of about 5 million.  What the check does fail
is an error in the recorded energy itself: an offset beyond +-0.024 on
either config, or on the random config a scale error beyond +14 % or
-9 %.  It adds no run to tier-1, and no measurable time.
"""

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from exact_law import mean_variance
from qsdsim import SimulationConfig, run_ensemble

TAU0, T_FINAL, DT, M = 0.4, 2.0, 0.0025, 20_000


def random_config() -> tuple[np.ndarray, np.ndarray]:
    """H (n = 4, max|E| = 1) and psi0 of numpy rng seed 4."""
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 4)
    h /= np.max(np.abs(np.linalg.eigvalsh(h)))
    return h, random_state(rng, 4)


def gap_and_gate(scale: float, h, psi0) -> tuple[float, float, float, float]:
    """The mean terminal Var H of a run from psi0 under H at tau0 x scale
    minus the law at tau0, and the gate: 4 standard errors plus 0.35 dt;
    then the final mean <H> minus <H>(0), and its gate: 4 sqrt(Var_0 H /
    M) plus 0.05 dt."""
    config = SimulationConfig(
        hamiltonian=h, initial_state=psi0, tau0=TAU0 * scale, dt=DT,
        t_final=T_FINAL, n_trajectories=M, master_seed=11,
        record_stride=round(T_FINAL / DT))
    summary = run_ensemble(config, workers=2, final_projector_only=True)
    v = summary.terminal_variances
    energies, vecs = np.linalg.eigh(h)
    p = np.abs(vecs.conj().T @ psi0) ** 2
    law = mean_variance(energies, p, TAU0, T_FINAL)
    var0 = p @ energies ** 2 - (p @ energies) ** 2
    return (v.mean() - law, 4 * v.std(ddof=1) / np.sqrt(M) + 0.35 * DT,
            summary.mean_energy[-1] - p @ energies,
            4 * np.sqrt(var0 / M) + 0.05 * DT)


def test_mean_variance_is_the_exact_law():
    gap, gate, energy_gap, energy_gate = gap_and_gate(1.0, *random_config())
    assert abs(gap) <= gate
    assert abs(energy_gap) <= energy_gate


@pytest.mark.parametrize("scale", [1.05, 0.95])
def test_a_five_percent_tau0_error_fails(scale):
    gap, gate, _, _ = gap_and_gate(scale, *random_config())
    assert abs(gap) > gate


def test_readme_qubit_is_the_exact_law():
    gap, gate, energy_gap, energy_gate = gap_and_gate(
        1.0, np.diag([0.5, -0.5]), np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(gap) <= gate
    assert abs(energy_gap) <= energy_gate
