"""Complex Wiener-increment sampling.

Complex increments dxi have independent real and imaginary parts, each
Normal(0, dt/2), so that

    E[dxi] = 0,   E[dxi^2] = 0,   E[|dxi|^2] = dt,

and the law is invariant under multiplication by a unit phase.  All
sampling is Ito-discretized: quadratic |dxi|^2 terms contribute at first
order in dt downstream.

Streams are counter-based (Philox) and keyed by (master_seed,
stream_index), so every trajectory of an ensemble owns an independent,
bit-reproducible noise source regardless of scheduling.
"""

import numpy as np

from .errors import InvalidParameterError
from .qcore import positive

_U64 = np.uint64


class NoiseStream:
    """Seedable source of Wiener increments.

    One stream per trajectory; identical (master_seed, stream_index, draw
    sequence) reproduces identical increments bit-for-bit, and distinct
    stream indices give statistically independent sequences.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        if stream_index < 0:
            raise InvalidParameterError(
                f"stream_index must be non-negative, got {stream_index}")
        self.master_seed = int(master_seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_index = int(stream_index)
        key = np.array([self.master_seed, self.stream_index], dtype=_U64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def __repr__(self):
        return f"NoiseStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def sample_dxi(dt: float, stream: NoiseStream) -> complex:
    """One complex Wiener increment with E|dxi|^2 = dt: a block of one."""
    return complex(sample_dxi_block(dt, 1, stream)[0])


def sample_dxi_block(dt: float, n: int, stream: NoiseStream) -> np.ndarray:
    """n complex increments drawn in the same order as repeated sample_dxi calls.

    sample_dxi is a block of one, so n successive sample_dxi draws from the
    same stream give the same bits, which is what lets batched integrators
    replay per-step noise exactly.
    """
    dt = positive("dt", dt)
    n = int(n)
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    g = stream.standard_normal((n, 2))
    return np.sqrt(0.5 * dt) * (g[:, 0] + 1j * g[:, 1])


def moment_audit(dt: float, n: int, stream: NoiseStream) -> dict:
    """Empirical moments of n complex increments at step dt.

    Returns the column set emitted by the `noise-audit` CLI subcommand.
    """
    dxi = sample_dxi_block(dt, n, stream)
    return {
        "dt": float(dt),
        "n": int(n),
        "mean_re": float(np.mean(dxi.real)),
        "mean_im": float(np.mean(dxi.imag)),
        "mean_sq_re": float(np.mean(dxi.real ** 2)),
        "mean_sq_im": float(np.mean(dxi.imag ** 2)),
        "mean_abs_sq": float(np.mean(np.abs(dxi) ** 2)),
    }
