import os

import numpy as np
import pytest

from qsdsim import qcore, trajectory


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_state(rng, n):
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def random_density(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def variance_rise_z(summary):
    """Largest rise of mean Var H between record times, in standard errors.

    The standard error at each record time is std(ddof=1) / sqrt(M) of the
    retained Var H series, so every trajectory must be retained.  Where the
    spread is 0, a rise counts as infinite and anything else as 0.
    """
    var = np.array([rec.energy_variance
                    for rec in summary.trajectories.values()])
    se = var.std(axis=0, ddof=1) / np.sqrt(len(var))
    rise = np.diff(summary.mean_energy_variance)
    spread = np.hypot(se[1:], se[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(spread > 0, rise / spread, np.where(rise > 0, np.inf, 0.0))
    return float(np.max(z, initial=0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which the test process still has a child, running
    or unreaped (a noise helper process, say)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid: {pid})")


def force_noise_path(monkeypatch, helper: bool, pool_size: int = 1):
    """Make run_ensemble and run_trajectory see pool_size usable CPUs, or
    twice as many, so that a pool of pool_size draws its noise in-process,
    or in helper processes."""
    cpus = 2 * pool_size if helper else pool_size
    monkeypatch.setattr(qcore, "usable_cpus", lambda: cpus)


def helper_term(count, n, n_steps, stride):
    """What trajectory.batch_plan charges a batch (chunks of 512 rows, no
    kept series) for its noise helper: its bytes with a spare CPU minus
    its bytes without one."""
    plan = [trajectory.batch_plan(count, n, n_steps, stride, 0, 512, spare)
            for spare in (True, False)]
    return plan[0].bytes - plan[1].bytes
