"""Density-operator evolution: the closed-form hamiltonian-driven solution,
and Lindblad right-hand sides with an RK4 integrator as its oracle.

Two generators:

    lindblad_rhs:     drho/dt = L rho Ld - 1/2 Ld L rho - 1/2 rho Ld L
    psd_master_rhs:   drho/dt = -(i/hbar) [H, rho]
                               + (tau0/hbar^2) (H rho H - 1/2 H^2 rho - 1/2 rho H^2)

The second is the first with L = sqrt(tau0) H / hbar + i I / sqrt(tau0);
the identity-part terms cancel, which the tests verify entrywise.  For a
time-independent H the second is diagonal in the energy eigenbasis and
solves in closed form (psd_master_exact),

    rho_jk(t) = rho_jk(0) exp(-i w_jk t / hbar - tau0 w_jk^2 t / (2 hbar^2)),

with w_jk = E_j - E_k.  Every formula here is evaluated at hbar = 1 (SI
configs are rescaled on load, see ensemble).

That closed form is the only master path of the package: `compare`
evaluates it at the record times, and the `master` subcommand (one
exact_solution) at every step time through exact_states, in chunks of
MASTER_CHUNK_BYTES, writing each state's summary row as its chunk
arrives.  integrate_master (RK4) with the two generators is the
independent oracle the tests check the closed form against.
"""

import warnings

import numpy as np

from . import qcore
from .errors import IntegrationFailureError, InvalidParameterError, ShapeError
from .trajectory import record_steps

TRACE_DRIFT_LIMIT = 1e-6
POSITIVITY_WARN = -1e-8
MASTER_CHUNK_BYTES = 2 ** 20   # bytes of states per chunk of `qsdsim master`


def lindblad_rhs(rho, lop) -> np.ndarray:
    """L rho Ld - 1/2 {Ld L, rho}; hermitian and traceless for hermitian rho."""
    rho = np.asarray(rho, dtype=np.complex128)
    lop = np.asarray(lop, dtype=np.complex128)
    if rho.shape != lop.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"shape mismatch: rho {rho.shape} vs L {lop.shape}")
    ld = lop.conj().T
    ldl = ld @ lop
    return lop @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl)


def psd_master_rhs(rho, h, tau0: float) -> np.ndarray:
    """Hamiltonian-driven master generator (commutator plus energy decoherence)."""
    rho = np.asarray(rho, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if rho.shape != h.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"shape mismatch: rho {rho.shape} vs H {h.shape}")
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    comm = h @ rho - rho @ h
    h2 = h @ h
    dissipator = h @ rho @ h - 0.5 * (h2 @ rho + rho @ h2)
    return -1j * comm + tau0 * dissipator


def integrate_master(rho0, rhs, dt: float, t_final: float):
    """Classical RK4 on drho/dt = rhs(rho) with per-step re-hermitization
    over the grid dt * k, k = 0..round(t_final / dt): returns (times,
    states) with states[k] the density operator at times[k].

    Trace drift beyond TRACE_DRIFT_LIMIT aborts; positivity of the final
    state is monitored (warning only - silent projection would mask
    integrator bugs).
    """
    dt, t_final = qcore.positive("dt", dt), qcore.positive("t_final", t_final)
    if dt > t_final:
        raise InvalidParameterError(
            f"need dt <= t_final, got dt={dt}, t_final={t_final}")
    n_steps = int(round(t_final / dt))
    rho = qcore.as_density(rho0)
    states = np.empty((n_steps + 1,) + rho.shape, dtype=np.complex128)
    states[0] = rho = 0.5 * (rho + rho.conj().T)   # canonical hermitian representative
    for k in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k] = rho = 0.5 * (rho + rho.conj().T)
        trace = np.trace(rho).real
        if not np.isfinite(trace) or abs(trace - 1.0) > TRACE_DRIFT_LIMIT:
            raise IntegrationFailureError(
                f"trace drifted to {trace!r} at step {k} (dt too large?)")
    min_eig = np.linalg.eigvalsh(rho).min()
    if min_eig < POSITIVITY_WARN:
        warnings.warn(
            f"density operator lost positivity: min eigenvalue {min_eig:.3e}",
            RuntimeWarning, stacklevel=2)
    return dt * np.arange(n_steps + 1), states


def psd_master_exact(rho0, h, tau0: float, times) -> np.ndarray:
    """Closed-form solution of psd_master_rhs at each of `times`, (T, n, n)."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or not np.all(np.isfinite(times)) or np.any(times < 0.0):
        raise InvalidParameterError("times must be a 1-d array of finite t >= 0")
    return exact_solution(rho0, h, tau0)(times)


def exact_solution(rho0, h, tau0: float):
    """psd_master_exact as a function of its times (a 1-d float array),
    checked and diagonalized once: rho0 is rotated into the eigenbasis of
    H, each entry decays at its own rate, and each state is rotated back."""
    rho0 = qcore.as_density(rho0)
    h = qcore.as_operator(h)
    if rho0.shape != h.shape:
        raise ShapeError(f"shape mismatch: rho {rho0.shape} vs H {h.shape}")
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    energies, vecs = np.linalg.eigh(h)
    w = energies[:, None] - energies[None, :]
    rate = -1j * w - 0.5 * tau0 * w * w
    rho_eigen = vecs.conj().T @ rho0 @ vecs
    return lambda t: vecs @ (rho_eigen * np.exp(t[:, None, None] * rate)) @ vecs.conj().T


def analytic_offdiagonal(rho0_12: complex, e1: float, e2: float, tau0: float,
                         t: float) -> complex:
    """Closed-form off-diagonal element for a two-level diagonal hamiltonian."""
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    t = qcore.positive("t", t, allow_zero=True)
    de = float(e1) - float(e2)
    return complex(rho0_12) * np.exp(-1j * de * t - tau0 * de * de * t / 2.0)


def max_offdiagonal(rho) -> float:
    """Largest off-diagonal magnitude (the summary CSV's offdiag_abs column)."""
    rho = np.asarray(rho)
    mask = ~np.eye(rho.shape[0], dtype=bool)
    return float(np.max(np.abs(rho[mask]))) if rho.shape[0] > 1 else 0.0


def exact_states(solution, n: int, dt: float, steps):
    """Yield (t, rho) of solution (an exact_solution at dimension n) at t =
    dt * k for each step index k of `steps` (a range or an array), in order,
    in chunks of MASTER_CHUNK_BYTES of states, each chunk's times built from
    its own step indices: no array spans all steps.
    """
    chunk = max(MASTER_CHUNK_BYTES // (16 * n * n), 1)   # complex128
    for start in range(0, len(steps), chunk):
        times = dt * np.asarray(steps[start:start + chunk])
        yield from zip(times, solution(times))


def write_summary_csv(path, states, header: dict):
    """One row of scalars per (t, rho) of states: t, trace, purity,
    offdiag_abs."""
    qcore.write_table(path, header, ["t", "trace", "purity", "offdiag_abs"],
                      ((t, np.trace(rho).real, np.trace(rho @ rho).real,
                        max_offdiagonal(rho)) for t, rho in states))


def snapshot_indices(n_times: int) -> np.ndarray:
    """Time indices of the master_states.json snapshots: the record grid
    (trajectory.record_steps) of n_times - 1 steps at stride
    max(n_times // 64, 1), i.e. every stride-th index plus the last."""
    return record_steps(n_times - 1, max(n_times // 64, 1))


def write_snapshots_json(path, snapshots, header: dict):
    """Dump density-operator snapshots, given as (t, rho) pairs."""
    qcore.write_json(path, {
        "header": header,
        "snapshots": [{"t": float(t), "rho": rho} for t, rho in snapshots],
    })
