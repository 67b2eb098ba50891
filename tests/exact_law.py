"""The exact law of the PSD ensemble, as a test oracle.

For a time-independent H (hbar = 1) the amplitudes of a trajectory in the
energy eigenbasis are

    c_k(t) ∝ c_k(0) exp(-i E_k t - tau0 E_k^2 t / 2 + E_k Z(t)),

linear in one complex scalar Z(t) = tau0 ∫<H> dt + sqrt(tau0) xi(t).  By
Girsanov, X = Re Z has an exact law: pick level k with probability p_k =
|c_k(0)|^2, then X ~ N(tau0 E_k t, tau0 t / 2); Im Z adds phases only.  So
the populations are ∝ p_j exp(-tau0 E_j^2 t + 2 E_j X), and an ensemble
moment is a sum over k of a one-dimensional Gaussian integral in X, which
Gauss-Hermite quadrature evaluates (Hughston, Proc. R. Soc. A 452, 953
(1996); Adler, Brody, Brun & Hughston, J. Phys. A 34, 8795 (2001)).
"""

import numpy as np


def mean_variance(energies, populations, tau0: float, t: float,
                  nodes: int = 120) -> float:
    """E[Var H(t)] over the ensemble of trajectories from initial
    eigenbasis populations p_k, by `nodes` Gauss-Hermite nodes per level."""
    e = np.asarray(energies, dtype=float)
    p = np.asarray(populations, dtype=float)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    # X = tau0 E_k t + sqrt(tau0 t) x under the weight exp(-x^2) / sqrt(pi)
    big_x = tau0 * t * e[:, None, None] + np.sqrt(tau0 * t) * x[None, :, None]
    log_q = np.log(p) - tau0 * e * e * t + 2 * e * big_x    # (k, node, j)
    q = np.exp(log_q - log_q.max(axis=-1, keepdims=True))
    q /= q.sum(axis=-1, keepdims=True)
    var = q @ (e * e) - (q @ e) ** 2                          # (k, node)
    return float(p @ (var @ w) / np.sqrt(np.pi))
