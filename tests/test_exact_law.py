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
"""

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from exact_law import mean_variance
from qsdsim import SimulationConfig, run_ensemble

TAU0, T_FINAL, DT, M = 0.4, 2.0, 0.0025, 20_000


def gap_and_gate(scale: float) -> tuple[float, float]:
    """The mean terminal Var H of a run at tau0 x scale minus the law at
    tau0, and the gate: 4 standard errors plus 0.35 dt."""
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 4)
    h /= np.max(np.abs(np.linalg.eigvalsh(h)))
    psi0 = random_state(rng, 4)
    config = SimulationConfig(
        hamiltonian=h, initial_state=psi0, tau0=TAU0 * scale, dt=DT,
        t_final=T_FINAL, n_trajectories=M, master_seed=11,
        record_stride=round(T_FINAL / DT))
    v = run_ensemble(config, workers=2,
                     final_projector_only=True).terminal_variances
    energies, vecs = np.linalg.eigh(h)
    law = mean_variance(energies, np.abs(vecs.conj().T @ psi0) ** 2, TAU0,
                        T_FINAL)
    return v.mean() - law, 4 * v.std(ddof=1) / np.sqrt(M) + 0.35 * DT


def test_mean_variance_is_the_exact_law():
    gap, gate = gap_and_gate(1.0)
    assert abs(gap) <= gate


@pytest.mark.parametrize("scale", [1.05, 0.95])
def test_a_five_percent_tau0_error_fails(scale):
    gap, gate = gap_and_gate(scale)
    assert abs(gap) > gate
