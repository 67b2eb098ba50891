"""Complex Wiener-increment sampling.

Complex increments dxi have independent real and imaginary parts, each
Normal(0, dt/2), so that

    E[dxi] = 0,   E[dxi^2] = 0,   E[|dxi|^2] = dt,

and the law is invariant under multiplication by a unit phase.  All
sampling is Ito-discretized: quadratic |dxi|^2 terms contribute at first
order in dt downstream.

Streams are counter-based (Philox) and keyed by (master_seed,
stream_index), so every trajectory of an ensemble owns an independent,
bit-reproducible noise source, whoever draws it and when.  fill_dxi_blocks
is the one draw: of a lone stream (sample_dxi_block), and of a batch's
streams a block of steps at a time (trajectory._batch_layout), each in the
process that steps its trajectory (trajectory._RowHelper).
"""

import functools

import numpy as np

from .errors import InvalidParameterError
from .qcore import check_memory, positive, whole

_U64 = np.uint64


@functools.cache
def _key_type():
    """Philox(_key_type()(key)) has the state of Philox(key=key) without
    the SeedSequence of OS entropy that one makes and drops (made at the
    first stream, which loads numpy.random, 6 ms, anyway)."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=_U64):  # (2, uint64): the key
            return self.key
    return Key


class NoiseStream:
    """Seedable source of Wiener increments.

    One stream per trajectory; identical (master_seed, stream_index, draw
    sequence) reproduces identical increments bit-for-bit, and distinct
    stream indices give statistically independent sequences.
    """

    def __init__(self, master_seed: int, stream_index: int = 0):
        stream_index = whole("stream_index", stream_index)
        if not 0 <= stream_index < 2 ** 64:
            raise InvalidParameterError(
                f"stream_index must be non-negative and below 2^64, got "
                f"{stream_index}")
        self.master_seed = whole("master_seed", master_seed) & 0xFFFFFFFFFFFFFFFF
        self.stream_index = stream_index
        key = np.array([self.master_seed, self.stream_index], dtype=_U64)
        self._gen = np.random.Generator(np.random.Philox(_key_type()(key)))

    def standard_normal(self, size=None, out=None) -> np.ndarray:
        return self._gen.standard_normal(size, out=out)

    def __repr__(self):
        return f"NoiseStream(master_seed={self.master_seed}, stream_index={self.stream_index})"


def sample_dxi(dt: float, stream: NoiseStream) -> complex:
    """One complex Wiener increment with E|dxi|^2 = dt: a block of one."""
    return complex(sample_dxi_block(dt, 1, stream)[0])


def sample_dxi_block(dt: float, n: int, stream: NoiseStream) -> np.ndarray:
    """n complex increments drawn in the same order as repeated sample_dxi calls.

    sample_dxi is a block of one, so n successive sample_dxi draws from the
    same stream give the same bits, which is what lets batched integrators
    replay per-step noise exactly (fill_dxi_blocks of a lone stream).
    """
    dt = positive("dt", dt)
    n = whole("n", n)
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    dxi = np.empty(n, np.complex128)
    fill_dxi_blocks(dt, [stream], dxi, None)
    return dxi


def fill_dxi_blocks(dt: float, streams, out, scratch):
    """Column j of out (steps, len(streams)) gets the next `steps`
    increments of streams[j]: each step's two normals, real part first,
    times sqrt(dt / 2).

    The streams are drawn a group at a time into the float buffer scratch
    (group, >= steps, 2), which is scaled once and copied into out.  A
    lone stream is drawn straight into a contiguous out, (steps, 1) or
    (steps,), which is the same (steps, 2) floats, and scaled there:
    scratch is not used (it may be None): sample_dxi_block's draw.
    """
    steps = out.shape[0]
    scale = np.sqrt(0.5 * positive("dt", dt))
    if len(streams) == 1:
        column = out.view(np.float64).reshape(steps, 2)
        streams[0].standard_normal(out=column)
        column *= scale
        return
    for j in range(0, len(streams), len(scratch)):
        part = scratch[:len(streams) - j, :steps]
        for g, stream in zip(part, streams[j:j + len(part)]):
            stream.standard_normal(out=g)
        part *= scale
        out[:, j:j + len(part)] = part.view(np.complex128)[..., 0].T


def moment_audit(dt: float, n: int, stream: NoiseStream) -> dict:
    """Empirical moments of n complex increments at step dt.

    Returns the column set emitted by the `noise-audit` CLI subcommand.
    A sample that would not fit in physical memory (32 bytes per increment
    at the peak) is refused before it is drawn.
    """
    n = whole("n", n)
    check_memory(32 * n, f"a noise audit of {n} increments", "lower n")
    dxi = sample_dxi_block(dt, n, stream)
    return {
        "dt": float(dt),
        "n": n,
        "mean_re": float(np.mean(dxi.real)),
        "mean_im": float(np.mean(dxi.imag)),
        "mean_sq_re": float(np.mean(dxi.real ** 2)),
        "mean_sq_im": float(np.mean(dxi.imag ** 2)),
        "mean_abs_sq": float(np.mean(np.abs(dxi) ** 2)),
    }
