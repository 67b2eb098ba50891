"""Fluctuating-time propagation and Planck-scale decoherence estimates.

The time coordinate seen by a quantum system is taken to fluctuate around
laboratory time,

    dt_bar = dt + sqrt(tau1) dxi,        tau1 = C * T_Planck,

with C a dimensionless factor of order unity.  Feeding dt_bar into a plain
Schrodinger Euler step produces non-physical norm changes; the unique
norm-preserving completion adds a scalar counter-term s = sqrt(tau1) <H>
on the noise and a hermitian counter-term R = -(tau1 / 2 hbar) Hd^2 on the
drift.  The completed propagator,

    hbar d|psi> = (-i H dt + R dt + (sqrt(tau1) H - s) dxi) |psi>,

reproduces the hamiltonian-driven diffusion step with tau0 = tau1 up to a
global phase; `fluctuating_time_step` implements it as an independent code
path precisely so that the equivalence can be checked rather than assumed.

The propagator and its completion are evaluated at hbar = 1, like the
rest of the package (SI configs are rescaled on load, see ensemble).

Estimates: energy-superposition off-diagonals decay at

    rate = tau0 * dE^2 / (2 hbar^2),

which `decoherence_rate` evaluates in SI units, with the CODATA hbar
(HBAR, like G and C_LIGHT a fixed module constant), for
interferometry-style inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import InvalidParameterError
from .noise import NoiseStream, sample_dxi


HBAR = 1.054571817e-34     # J s, CODATA
G = 6.67430e-11            # m^3 kg^-1 s^-2, CODATA
C_LIGHT = 299792458.0      # m/s, exact


def planck_time() -> float:
    """sqrt(hbar G / c^5), about 5.39e-44 s."""
    return math.sqrt(HBAR * G / C_LIGHT ** 5)


def fluctuation_time_constant(c_factor: float) -> float:
    """tau1 = C * T_Planck for a dimensionless C > 0."""
    return qcore.positive("C", c_factor) * planck_time()


@dataclass(frozen=True)
class NormCompletion:
    """Counter-terms that keep the fluctuating-time propagator unitary in
    the Ito mean: scalar s on the noise, hermitian R on the drift."""

    s: float
    r: np.ndarray


def norm_completion(h, psi, tau1: float) -> NormCompletion:
    """The unique (s, R) closing the norm: s = sqrt(tau1) <H>,
    R = -(tau1 / 2) Hd^2."""
    h = qcore.as_operator(h)
    psi = qcore.as_state(psi)
    tau1 = qcore.positive("tau1", tau1, allow_zero=True)
    mean = np.vdot(psi, h @ psi).real
    hd = h - mean * np.eye(h.shape[0])
    r = -(0.5 * tau1) * (hd @ hd)
    return NormCompletion(s=float(math.sqrt(tau1) * mean), r=r)


def ito_norm_defect(h, psi, completion: NormCompletion,
                    tau1: float) -> tuple[float, float]:
    """Ito expansion of d<psi|psi> per unit dt for a candidate completion.

    Returns (drift_rate, noise_coefficient): the dt coefficient of the
    ensemble-mean norm change (with E|dxi|^2 = dt applied) and the
    magnitude of the dxi coefficient.  Both vanish for the correct
    completion; a 1%-perturbed completion leaves a detectable residue.
    """
    h = np.asarray(h, dtype=np.complex128)
    psi = np.asarray(psi, dtype=np.complex128)
    sqrt_tau = math.sqrt(float(tau1))
    mean_r = np.vdot(psi, completion.r @ psi).real
    # (sqrt(tau1) H - s I) |psi>
    gpsi = sqrt_tau * (h @ psi) - complex(completion.s) * psi
    noise_coeff = 2.0 * abs(np.vdot(psi, gpsi))
    drift_rate = 2.0 * mean_r + np.vdot(gpsi, gpsi).real
    return float(drift_rate), float(noise_coeff)


def fluctuating_time_step(psi, h, tau1: float, dt: float,
                          dxi: complex) -> np.ndarray:
    """Euler step of the norm-completed fluctuating-time propagator.

    Must match trajectory.psd_step with tau0 = tau1 up to a global phase
    (the -iH drift keeps the <H> phase that the centered form drops);
    tau1 = 0 recovers a plain Schrodinger Euler step.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    dt = qcore.positive("dt", dt)
    comp = norm_completion(h, psi, tau1)
    h = np.asarray(h, dtype=np.complex128)
    sqrt_tau = math.sqrt(float(tau1))
    dpsi = ((-1j * (h @ psi) + comp.r @ psi) * dt
            + (sqrt_tau * (h @ psi) - comp.s * psi) * complex(dxi))
    return qcore.normalize(psi + dpsi)


def _finite(name: str, compute) -> float:
    """compute(), refused when it is not finite or raises OverflowError."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} is not finite: {value}")
    return value


@dataclass(frozen=True)
class DecoherenceEstimate:
    """Off-diagonal decay rate and its inverse for an energy gap dE."""

    rate_per_s: float
    decoherence_time_s: float


def decoherence_rate(delta_e: float, tau0: float) -> DecoherenceEstimate:
    """rate = tau0 * dE^2 / (2 hbar^2); the decoherence time is its inverse
    (infinite for dE = 0: degenerate superpositions never decohere)."""
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    gap = qcore.positive("|delta_e|", abs(float(delta_e)), allow_zero=True)
    rate = _finite("decoherence rate",
                   lambda: tau0 * gap ** 2 / (2.0 * HBAR ** 2))
    time = math.inf if rate == 0.0 else 1.0 / rate
    return DecoherenceEstimate(rate_per_s=rate, decoherence_time_s=time)


def equivalence_report(n_samples: int = 500, seed: int = 7, dt: float = 1e-10,
                       tolerance: float = 1e-12) -> dict:
    """Stress-test the fluctuating-time / hamiltonian-diffusion identity.

    Draws random (H, psi, tau1, dxi) with dimensions 2..4 and measures the
    per-step deviation between `fluctuating_time_step` and
    `trajectory.psd_step` with tau0 = tau1, after global-phase alignment.
    The two differ by the multiplicative <H> phase, so the residual is
    O(dt^(3/2)); at the default dt it sits far below `tolerance`.

    Also runs the norm-closure control: the Ito norm defect of the correct
    completion must vanish (< 1e-10), while completions with s or R
    perturbed by 1% must leave a defect above 1e-4.
    """
    from .trajectory import psd_step

    n_samples = qcore.whole("n_samples", n_samples)
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    tolerance = qcore.positive("tolerance", tolerance)
    stream = NoiseStream(seed, 0)
    rng = np.random.default_rng(stream.master_seed)   # seed wrapped to 64 bits
    max_dev = 0.0
    max_good_defect = 0.0
    min_perturbed_defect = math.inf

    for _ in range(n_samples):
        n = int(rng.integers(2, 5))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (a + a.conj().T)
        # fix the spectral spread to 3 and shift the spectrum off zero: the
        # perturbed-completion control scales with Var H and <H>, so a
        # near-degenerate draw would fall under the 1e-4 detection floor
        evals = np.linalg.eigvalsh(h)
        spread = float(evals[-1] - evals[0])
        if spread < 1e-6:
            h = np.diag(np.linspace(-0.5, 0.5, n)).astype(complex)
            spread = 1.0
        h = (3.0 / spread) * (h - evals.mean() * np.eye(n)) + 2.5 * np.eye(n)
        for _attempt in range(64):
            psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            psi = qcore.normalize(psi)
            hpsi = h @ psi
            mean = np.vdot(psi, hpsi).real
            var = np.vdot(hpsi, hpsi).real - mean * mean
            if var >= 0.1:
                break
        tau1 = float(rng.uniform(0.5, 2.0))
        dxi = sample_dxi(dt, stream)

        fl = fluctuating_time_step(psi, h, tau1, dt, dxi)
        pd = psd_step(psi, h, tau1, dxi, dt)
        dev = float(np.max(np.abs(qcore.align_global_phase(fl, pd) - pd)))
        max_dev = max(max_dev, dev)

        comp = norm_completion(h, psi, tau1)
        drift, noise = ito_norm_defect(h, psi, comp, tau1)
        max_good_defect = max(max_good_defect, abs(drift) + noise)
        for bad in (NormCompletion(s=comp.s * 1.01, r=comp.r),
                    NormCompletion(s=comp.s, r=comp.r * 1.01)):
            drift, noise = ito_norm_defect(h, psi, bad, tau1)
            min_perturbed_defect = min(min_perturbed_defect, abs(drift) + noise)

    return {
        "samples": n_samples,
        "dt": dt,
        "max_deviation": max_dev,
        "tolerance": tolerance,
        "equivalence_ok": max_dev < tolerance,
        "norm_defect_max": max_good_defect,
        "norm_defect_ok": max_good_defect < 1e-10,
        "perturbed_defect_min": min_perturbed_defect,
        "perturbed_detected": min_perturbed_defect > 1e-4,
        "passed": bool(max_dev < tolerance and max_good_defect < 1e-10
                       and min_perturbed_defect > 1e-4),
    }


STANDARD_GRAVITY = 9.80665  # m/s^2


def delta_e_from_velocities(mass: float, v1: float, v2: float) -> float:
    """Kinetic energy gap m (v1^2 - v2^2) / 2 between two wave-packet arms."""
    mass = qcore.positive("mass", mass)
    return _finite("kinetic energy gap",
                   lambda: 0.5 * mass * (float(v1) ** 2 - float(v2) ** 2))


def delta_e_from_height(mass: float, delta_h: float,
                        g: float = STANDARD_GRAVITY) -> float:
    """Potential energy gap m g dh between two interferometer arms."""
    mass = qcore.positive("mass", mass)
    return _finite("potential energy gap", lambda: mass * float(g) * float(delta_h))
