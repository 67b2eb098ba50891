"""Ito state-vector integrators.

Two unravelings of the same master equation are implemented:

* `qsd_step` - the general state diffusion step for an arbitrary Lindblad
  operator L:

      d|psi> = (<Ld> L - 1/2 Ld L - 1/2 <Ld><L>) |psi> dt
             + (L - <L>) |psi> dxi ,        Ld = L^dagger,

* `psd_step` - the hamiltonian-driven specialization obtained by taking
  L = sqrt(tau0) H / hbar + i I / sqrt(tau0):

      d|psi> = ( -(i/hbar) Hd dt - (tau0 / 2 hbar^2) Hd^2 dt
                 + (sqrt(tau0)/hbar) Hd dxi ) |psi> ,   Hd = H - <H>.

Every formula is evaluated at hbar = 1 (SI configs are rescaled on load,
see ensemble).

The two routes agree term by term (the substitution turns the -iH phase
into -iHd), which the test suite exploits as a cross-implementation
oracle.  Both steps are Euler-Maruyama followed by explicit
renormalization; the continuous equations preserve the norm exactly under
Ito rules, and the discrete pre-renormalization defect is O(dt^2) in the
mean.

H is time-independent, so production runs step in its eigenbasis, where
Hd = diag(E_k - <H>) and the psd_step increment becomes elementwise
(`_EigenKernel`: O(n) per step instead of O(n^2)).  The same kernel drives
the ensemble and norm_defect_samples; the dense psd_step and qsd_step are
its test oracles.  It steps a noise block per call, into arrays made once
per batch: B rows as a (B, n) array, its ops along whole contiguous
arrays, and a batch of one (ensemble.run_trajectory, or an ensemble job of
a single trajectory) as a rank-1 row (n,) with a scalar <H>, coefficient
and norm, which saves most of NumPy's per-call overhead.

Determinism rule: a value per trajectory (its amplitudes, <H>, Var H,
norm) comes only from elementwise ops and sums along a row (row-wise
einsum, or a left-to-right sum), whose bits depend neither on how many
rows share a batch, nor on whether the row steps alone as rank 1, nor on
how many record points share a flush, so trajectory k of an ensemble
replays as a batch of one.  The batch is the unit of stepping and the
chunk, a fixed range of its rows, the unit of reduction: record points
are buffered and reduced a buffer at a time, each chunk on its own row
slice, where the sums (<H> and Var H) run along the row axis of each
record point and the projectors of all buffered points are one stacked
BLAS call per chunk, which runs the same zgemm on each point's matrices
as a call per point, as when the chunk is reduced alone.  A sum per
chunk may use BLAS because chunk boundaries are fixed, so a chunk's sums
do not depend on how many chunks share its batch.

A batch draws its noise in blocks of at most NOISE_BLOCK_BYTES, so a
batch whose noise fits one block (a lone trajectory of up to 524 288
steps) draws it once, before it steps.  A wider or longer batch draws
block k+1, and turns it into step coefficients, while it steps block k,
in a helper process forked for the batch when a CPU is spare (see
_NoiseBlocks), else itself between the two.  Each stream draws the same
numbers in the same order either way, and the coefficients are the same
elementwise ops on them, so no output bit depends on which process does
the drawing.  batch_plan decides all this once per run, and states the
memory it takes.
"""

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import qcore
from .errors import DegenerateStateError, InvalidParameterError
from .noise import NoiseStream, fill_dxi_blocks, sample_dxi_block
from .noise import sample_dxi  # noqa: F401  (looked up here by perfbench/tracing.py)

try:     # np.einsum without its Python wrapper: the same C routine and bits
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

_UNIT_PHASE_TOL = 1e-12
NOISE_BLOCK_BYTES = 12 << 20   # bytes of a full noise block with its norms
BATCH_BUFFER_BYTES = 1 << 20   # noise group and record buffer of a batch
NOISE_GROUP_BYTES = 1 << 17    # of it, the streams drawn at once
HELPER_BASE_BYTES = 5 << 20    # a noise helper's copied pages: a base
HELPER_STREAM_BYTES = 1 << 10  # and a term per stream (see batch_plan)
_MIN_NORM_SQ = 1e-28     # squared norm below which a step counts as collapsed


def lindblad_from_hamiltonian(h, tau0: float) -> np.ndarray:
    """Lindblad operator sqrt(tau0) H + i I / sqrt(tau0).

    Substituted into the master equation this reproduces the
    hamiltonian-driven diffusion generator exactly (see master.psd_master_rhs).
    """
    tau0 = qcore.positive("tau0", tau0)
    h = qcore.as_operator(h)
    n = h.shape[0]
    return np.sqrt(tau0) * h + (1j / np.sqrt(tau0)) * np.eye(n)


def gauge_transform(lop, u: complex) -> np.ndarray:
    """Multiply a Lindblad operator by a unit phase; physics is unchanged
    when the noise is rotated by the conjugate phase."""
    u = complex(u)
    if abs(abs(u) - 1.0) > _UNIT_PHASE_TOL:
        raise InvalidParameterError(f"|u| must be 1, got |u| = {abs(u)!r}")
    return np.asarray(lop, dtype=np.complex128) * u


def _check_step_args(psi, op, dt):
    psi = np.asarray(psi, dtype=np.complex128)
    op = np.asarray(op, dtype=np.complex128)
    qcore._check_match(op, psi)
    return psi, op, qcore.positive("dt", dt)


def qsd_step(psi, lop, dxi: complex, dt: float) -> np.ndarray:
    """One Euler-Maruyama state diffusion step for Lindblad operator L,
    renormalized."""
    psi, lop, dt = _check_step_args(psi, lop, dt)
    lpsi = lop @ psi
    mean_l = np.vdot(psi, lpsi)          # <L>
    mean_ld = np.conj(mean_l)            # <L^dagger> for normalized psi
    drift = mean_ld * lpsi - 0.5 * (lop.conj().T @ lpsi) \
        - 0.5 * mean_ld * mean_l * psi
    diffusion = lpsi - mean_l * psi
    return qcore.normalize(psi + (drift * dt + diffusion * complex(dxi)))


def psd_increment(psi, h, tau0: float, dxi: complex, dt: float) -> np.ndarray:
    """Raw hamiltonian-driven state change before renormalization."""
    psi, h, dt = _check_step_args(psi, h, dt)
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    hpsi = h @ psi
    mean = np.vdot(psi, hpsi).real
    hd_psi = hpsi - mean * psi                       # Hd |psi>
    hd2_psi = (h @ hd_psi) - mean * hd_psi           # Hd^2 |psi>
    return (-1j * dt * hd_psi
            - (0.5 * tau0) * dt * hd2_psi
            + np.sqrt(tau0) * complex(dxi) * hd_psi)


def psd_step(psi, h, tau0: float, dxi: complex, dt: float) -> np.ndarray:
    """One hamiltonian-driven diffusion step, renormalized.

    Eigenstates of H are exact fixed points (Hd kills them), and tau0 = 0
    reduces to a plain Euler step of the phase-free Schrodinger evolution.
    """
    new = np.asarray(psi, dtype=np.complex128) \
        + psd_increment(psi, h, tau0, dxi, dt)
    return qcore.normalize(new)


class _EigenKernel:
    """The PSD step on energy-eigenbasis amplitudes c of shape (..., n):
    (B, n) for a batch of rows, (n,) for a rank-1 row.

    In the eigenbasis of H (columns of `vecs`), Hd = diag(E - e) with
    e = sum_k |c_k|^2 E_k, and the increment of psd_increment becomes, per
    component,

        c_k *= 1 + hd_k (-i dt - (tau0/2) dt hd_k + sqrt(tau0) dxi),
                                                        hd_k = E_k - e.

    <H> is carried with the amplitudes: steps takes the rows' <H> and
    returns the next one, which recording reuses.  Every method keeps the
    module's determinism rule.
    """

    def __init__(self, h, dt: float, tau0: float):
        self.energies, self.vecs = np.linalg.eigh(h)
        self._pairs = np.repeat(self.energies, 2)    # E_k per float of a row
        self.dt = float(dt)
        phase_step = self.dt * float(np.max(np.abs(self.energies)))
        if phase_step > 0.5:
            warnings.warn(f"dt under-resolves the fastest phase (dt*E_max = "
                          f"{phase_step:.3g}); the weak-order-1 stepper will "
                          "be badly biased", RuntimeWarning, stacklevel=2)
        self._drift = -1j * self.dt
        self._curvature = np.array(-0.5 * tau0 * self.dt)  # 0-d arrays: a
        self._one = np.ones((), dtype=np.complex128)  # ufunc takes them fastest
        self._diffusion = math.sqrt(tau0)

    def coefficients(self, dxi) -> np.ndarray:
        """Turn dxi of shape (steps, B) or (steps,) into -i dt + sqrt(tau0)
        dxi in place (a block of noise is the largest buffer of a run;
        _NoiseBlocks turns each block in the process that draws it);
        returned as a view that broadcasts over rows: (steps, B, 1), or
        the (steps,) scalars of a rank-1 row."""
        dxi *= self._diffusion
        dxi += self._drift
        return dxi.reshape(dxi.shape + (1,) * (dxi.ndim - 1))

    def mean_energy(self, c) -> np.ndarray:
        v = c.view(np.float64)
        return _einsum("...i,...i,i->...", v, v, self._pairs)

    def variance(self, c, e) -> np.ndarray:
        """Var H of each row of c (..., B, n), given its <H> e (..., B).

        Each float w of a row adds ((w w) hd) hd, summed over the row
        left to right: the bits of einsum("bi,bi,bi,bi->b") on one batch,
        for any number of record points at once.
        """
        w = np.moveaxis(c.view(np.float64), -1, 0)
        hd = self._pairs.reshape((-1,) + (1,) * e.ndim) - e
        terms = np.multiply(w, w, out=np.empty(w.shape))
        terms *= hd
        terms *= hd
        v = terms[0].copy()
        for t in terms[1:]:
            v += t
        return v

    def buffers(self, shape):
        """What steps writes, made once per batch, for rows (B, n) or a
        rank-1 row (n,): two amplitude buffers that take turns, with float
        views (also transposed), f, hd, the curvature term, <H>; a batch adds
        row reciprocals, np.take's indices to repeat <H>, tiled energies."""
        *amps, f = np.empty((3,) + shape, dtype=np.complex128)
        amps = [(a, a.view(np.float64), a.view(np.float64).T) for a in amps]
        hd, cur = np.empty((2,) + shape)
        if len(shape) == 1:
            return amps, f, hd, cur, np.empty(()), None, None, self.energies
        return (amps, f, hd, cur, *np.empty((2, shape[0])),
                np.repeat(np.arange(shape[0]), shape[1]).reshape(shape),
                np.tile(self.energies, (shape[0], 1)))

    def steps(self, c, e, coeff, norms, work, hold=None, due=()):
        """Step rows c (B, n) with <H> e (B,) through coefficients coeff
        (steps, B, 1), or a rank-1 row c (n,) with scalar e through coeff
        (steps,) as Python complex, 1024 at a time, writing into work =
        buffers(c.shape) (c is only read); return the last c and <H>.  Each
        step's squared norms before renormalization go to norms (steps, B);
        after each step i in due, hold(c, e, norm^2) gets the rows.

        hd is formed negated, as <H> - E_k, and the update re-signed to
        1 - (coeff - curvature hd) hd: IEEE negation is exact, so these are
        the bits of 1 + (coeff + curvature hd) hd with hd = E_k - <H>."""
        amps, f, hd, cur, e_next, r, rows, tiled = work
        j = int(c is amps[0][0])
        for lo in range(0, len(coeff), 1024):
            part = coeff[lo:lo + 1024]
            for i, k in enumerate(part.tolist() if r is None else part, lo):
                np.subtract(e if r is None else e.take(rows, None, hd, "clip"),
                            tiled, hd)
                np.multiply(self._curvature, hd, cur)
                np.subtract(k, cur, f)
                np.multiply(f, hd, f)
                np.subtract(self._one, f, f)
                # not in place: NumPy multiplies one element in place as a
                # reduction, without the fused multiply-add a batch row gets
                nxt, w, columns = amps[j]
                np.multiply(f, c, nxt)
                c, j = nxt, 1 - j
                # times the reciprocal on the float view, transposed so that
                # a row's norm broadcasts: a complex divide by a real's bits;
                # Python's 1 / sqrt gives NumPy's but raises at norm 0
                if r is None:
                    nrm = norms[i, 0] = _einsum("...i,...i->...", w, w)
                    scale = 1.0 / (math.sqrt(nrm) if nrm else np.sqrt(nrm))
                else:
                    nrm = _einsum("...i,...i->...", w, w, out=norms[i])
                    scale = np.reciprocal(np.sqrt(nrm, r), r)
                np.multiply(columns, scale, columns)
                e = _einsum("...i,...i,i->...", w, w, self._pairs, out=e_next)
                if i in due:
                    hold(c, e, nrm)
        return c, e

    def step(self, c, e, coeff):
        """steps through one step of coefficients coeff (B, 1), or a rank-1
        row's scalar, returning each row's squared norm too."""
        nrm = np.empty((1, len(c) if c.ndim == 2 else 1))
        c, e = self.steps(c, e, np.asarray(coeff)[None], nrm, self.buffers(c.shape))
        return c, e, nrm[0] if c.ndim == 2 else nrm[0, 0]


@dataclass
class _BatchSums:
    """Reductions of a batch of trajectories, one entry per record time.

    The projector sum is in the energy eigenbasis (None if not summed).
    Per-trajectory series exist only for the retained rows.
    """

    projector_sum: np.ndarray        # (T, n, n)  sum_b c_b c_b^H
    energy_sum: np.ndarray           # (T,)  sum_b <H>_b
    variance_sum: np.ndarray         # (T,)  sum_b Var_b H
    max_norm_drift: np.ndarray       # (T,)  max_b |norm defect|
    winners: np.ndarray              # (n,)  rows whose largest final |c_k| is k
    terminal_variance: np.ndarray    # (B,)  final Var H of every row
    records: list                    # TrajectoryRecord of each retained row


@dataclass(frozen=True)
class BatchPlan:
    """What a run decides once, before any batch steps (see batch_plan)."""

    n_steps: int      # steps of every row
    stride: int       # record every stride-th step, and the last
    chunk: int        # rows of a reduction
    projectors: bool  # whether a chunk sums its rows' projectors
    block: int        # steps of noise drawn per generator call
    group: int        # streams drawn at once
    capacity: int     # record points buffered between flushes
    helper: bool      # whether a forked helper process draws the noise
    reduction: int    # bytes of a chunk's series, any projector sum, times
    bytes: int        # what a worker holds for the batch


def batch_plan(count: int, n: int, n_steps: int, stride: int, kept: int,
               chunk: int, spare_cpu: bool, projectors: bool) -> BatchPlan:
    """The plan of a batch of count rows of dimension n over n_steps steps,
    in chunks of `chunk` rows summing their projectors if asked, kept of
    them recording their series.  A narrower batch may run it too.

    A full noise block holds NOISE_BLOCK_BYTES of noise with its norms,
    24 bytes a row and step: 524 288 row-steps, 1024 steps of 512 rows or
    157 of 2000.  A batch of at most a full block draws its n_steps at
    once; a longer one draws 3/5 of a full block at a time, into two
    buffers that take turns: both (16 bytes a row and step each) with the
    norms (8) hold no more than a full block with its norms.  The record
    capacity is at least one point, which alone can exceed the budget at
    large B n, and at most the points of a block.  A batch whose noise
    outgrows one block forks a noise helper if spare_cpu is true and the
    platform has os.fork; one whose noise fits one block draws it once,
    in-process.  So a lone trajectory holds its noise up to the budget
    (at 60 000 steps, 1.44 MB of noise and norms), and a row
    that fails runs on as nan to the end of its block before the batch
    raises, with the same message.

    The bytes count the chunks' reductions (`reduction` each), the
    noise buffers with the norms, the group buffer of the process that
    draws (a batch of one row has none: it draws straight into its
    block), the record buffer with its flush temporaries (the last two
    share BATCH_BUFFER_BYTES), the two buffers of up to np.getbufsize()
    floats NumPy's iterator may take for a flush, the step's buffers, the
    kept series and the record times.  A helper adds the pages it comes to
    hold: a copy of each page resident at the fork that either process
    writes, the interpreter's and the streams', a base and a term per
    stream.  The batch's reductions and buffers are not among them: the
    helper is forked before the batch allocates them.  The terms are the
    upper envelope, with a margin, of the helper's peak Private_Dirty (the
    shared noise buffers left out) at stride 1 in a fresh interpreter: 4.2
    MiB for 256 rows at n = 32, 3.7 MiB for 2000 streams and 7.4 MiB for
    8192 (4.9 and 8.6 MiB for a second batch of 2000 or 8192 in the same
    process).  A process that freed more than that before the fork may
    have its allocator hand the batch pages that are still shared, and the
    helper then keeps copies of them too.
    """
    full = max(1, NOISE_BLOCK_BYTES // (24 * count))
    block = n_steps if n_steps <= full else max(1, 3 * full // 5)
    n_blocks = -(-n_steps // block)
    helper = spare_cpu and n_blocks > 1 and hasattr(os, "fork")
    group = max(1, min(count, NOISE_GROUP_BYTES // (16 * block)))
    per_point = count * (48 * n + 48)   # amplitudes, <H>, norm^2, temporaries
    capacity = max(1, min((BATCH_BUFFER_BYTES - NOISE_GROUP_BYTES) // per_point,
                          block // stride + 2))
    n_rec = record_count(n_steps, stride)
    reduction = n_rec * ((16 * n * n if projectors else 0) + 4 * 8)
    held = (-(-count // chunk) * reduction
            + count * block * (16 * min(2, n_blocks) + 8)  # dxi, block's norms
            + (16 * group * block if count > 1 else 0)   # group buffer
            + capacity * per_point
            + 16 * min(np.getbufsize(), capacity * count * 2 * n)  # iterator
            + count * (96 * n + 24)   # c0 tiled and <H>, buffers()
            + (24 * kept + 8) * n_rec   # kept series and times
            + (HELPER_BASE_BYTES + HELPER_STREAM_BYTES * count if helper else 0))
    return BatchPlan(n_steps, stride, chunk, projectors, block, group,
                     capacity, helper, reduction, held)


class _NoiseBlocks:
    """The coefficient blocks of a batch of streams under a plan, in
    order: block k holds kernel.coefficients of the increments of steps
    k * plan.block onwards, at most plan.block of them, as (steps,
    len(streams)).  The process that draws a block also turns it into
    coefficients, in place, so the stepping process only takes its view.

    Blocks take turns in two buffers (one, if the batch draws one block),
    so that block k+1 can be drawn while block k is stepped.  Used as a
    context manager; block(k) returns block k once it is drawn, and tells
    the drawer that the buffer of block k-1 is free.  Without a helper,
    block(k) draws it itself.  With one (plan.helper; a batch of one block
    has none), a process forked on entry draws every block from its
    copies of the streams (the parent's copies are not advanced) into an
    anonymous shared mmap, and the two processes pass a byte per block
    over two pipes: "block ready" to the parent and "buffer free" to the
    helper.  The helper writes nothing to stdout or stderr and leaves with
    os._exit; on exit the parent kills and reaps it, on every path, and a
    helper that dies makes block() raise.  If the fork fails, the batch
    draws its blocks itself.
    """

    def __init__(self, kernel: _EigenKernel, streams, plan: BatchPlan):
        self.kernel, self.streams, self.plan = kernel, streams, plan
        self.n_blocks = -(-plan.n_steps // plan.block)
        shape = (min(2, self.n_blocks), plan.block, len(streams))
        self._pid = self._scratch = None
        if plan.helper:     # mmap and signal take 1.5 ms to import: only a
            import mmap     # helper pays it
            shared = mmap.mmap(-1, 16 * math.prod(shape))
            self._buffers = np.frombuffer(shared, dtype=np.complex128
                                          ).reshape(shape)
        else:
            self._buffers = np.empty(shape, dtype=np.complex128)

    def _out(self, k: int) -> np.ndarray:
        """The buffer of block k, cut to its steps."""
        return self._buffers[k % 2, :self.plan.n_steps - k * self.plan.block]

    def _draw(self, k: int) -> np.ndarray:
        """Draw block k into its buffer and turn it into coefficients, in
        the process that calls."""
        if self._scratch is None and len(self.streams) > 1:
            self._scratch = np.empty((self.plan.group, self.plan.block, 2))
        out = self._out(k)
        fill_dxi_blocks(self.kernel.dt, self.streams, out, self._scratch)
        self.kernel.coefficients(out)
        return out

    def __enter__(self):
        if not self.plan.helper:
            return self
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on forking a process with threads
                # (BLAS's); the helper only draws and copies numbers
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:     # no process to spare: the batch draws itself
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            return self
        if pid == 0:
            code = 1
            try:
                os.close(ready_r)
                os.close(free_w)
                os.closerange(1, 3)     # no stdout or stderr
                for k in range(self.n_blocks):
                    if k >= 2 and not os.read(free_r, 1):
                        break       # the parent is gone
                    self._draw(k)
                    os.write(ready_w, b"\0")
                code = 0
            finally:
                os._exit(code)
        os.close(ready_w)
        os.close(free_r)
        self._pid, self._ready, self._free = pid, ready_r, free_w
        return self

    def block(self, k: int) -> np.ndarray:
        if self._pid is None:
            return self._draw(k)
        try:
            if 0 < k < self.n_blocks - 1:
                os.write(self._free, b"\0")
            ready = os.read(self._ready, 1)
        except BrokenPipeError:
            ready = b""
        if not ready:
            pid, self._pid = self._pid, None
            self._close()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            raise RuntimeError(
                f"the noise helper process {pid} ended (exit status {status}) "
                f"before noise block {k} of {self.n_blocks} was drawn")
        return self._out(k)

    def _close(self):
        os.close(self._ready)
        os.close(self._free)

    def __exit__(self, *exc):
        if self._pid is not None:
            pid, self._pid = self._pid, None
            self._close()
            import signal
            os.kill(pid, signal.SIGKILL)    # done, or drawing for nobody
            os.waitpid(pid, 0)


def _integrate_eigenbasis(kernel: _EigenKernel, c0, streams, keep,
                          plan: BatchPlan) -> list[_BatchSums]:
    """Integrate one trajectory per noise stream from eigenbasis amplitudes
    c0, as one batch of at most the rows planned, and reduce it a chunk of
    plan.chunk consecutive rows at a time (the last may be shorter).

    The batch is the unit of stepping: row b draws its increments from
    streams[b] in blocks (fill_dxi_blocks, bit-identical to per-step
    sample_dxi), so a trajectory's values do not depend on which other
    streams share its batch.  The chunk is the unit of reduction: at every
    step of record_steps(plan.n_steps, plan.stride) the rows' amplitudes,
    <H> and squared norm go into a record buffer, and a flush reduces
    every buffered record point at once, each chunk on its own row slice,
    when the buffer is full and at the end of each noise block.  So each
    chunk's _BatchSums, returned in row order, holds the bits of that
    chunk run as a batch of its own.  The rows listed in keep (batch rows)
    also record <H>, Var H and the norm defect ||psi + dpsi|| - 1 of the
    step just taken, and their final state, in the _BatchSums of their
    chunk.  Each row's final Var H is taken once, from its final
    amplitudes.

    With plan.helper, a forked process draws the noise blocks while the
    batch steps (_NoiseBlocks), with the same bits; the streams it was
    given are then not advanced.

    A row whose squared norm leaves [_MIN_NORM_SQ, inf) fails its chunk.
    The batch raises DegenerateStateError for the failed chunk of lowest
    index, naming its first bad step and, at that step, its lowest failed
    row: what that chunk raises alone, whichever chunks share its batch.
    """
    count, n = len(streams), len(c0)
    n_steps, stride, chunk = plan.n_steps, plan.stride, plan.chunk
    starts = range(0, count, chunk)
    n_rec = record_count(n_steps, stride)
    keep = np.asarray(keep, dtype=np.intp)
    # a helper is forked on entry, before the batch allocates and writes
    # its buffers (see batch_plan)
    with _NoiseBlocks(kernel, streams, plan) as noise:
        proj = (np.empty((len(starts), n_rec, n, n), dtype=np.complex128)
                if plan.projectors else [None] * len(starts))
        e_sum, v_sum, drift_max = np.empty((3, len(starts), n_rec))
        energy, variance, defect = (np.empty((len(keep), n_rec))
                                    for _ in range(3))
        held_c = np.empty((plan.capacity, count, n), dtype=np.complex128)
        held_e, held_nrm_sq = np.empty((2, plan.capacity, count))
        norms = np.empty((plan.block, count))
        held = done = 0      # record points buffered, and reduced before them
        failed = {}          # chunk -> the error of its first bad step

        def hold(c, e, nrm_sq):
            nonlocal held
            held_c[held], held_e[held], held_nrm_sq[held] = c, e, nrm_sq
            held += 1
            if held == plan.capacity:
                flush()

        def flush():
            """Reduce the buffered record points, each chunk on its rows:
            the sums along rows per point, and the projectors of all points
            in one stacked matmul, the same zgemm per point as a call per
            point."""
            nonlocal held, done
            if not held:
                return
            pos = slice(done, done + held)
            e = held_e[:held]
            v = kernel.variance(held_c[:held], e)
            d = np.sqrt(held_nrm_sq[:held]) - 1.0
            drift = np.abs(d)
            for j, lo in enumerate(starts):
                rows = slice(lo, lo + chunk)
                if plan.projectors:
                    part = held_c[:held, rows]
                    np.matmul(part.transpose(0, 2, 1), part.conj(),
                              out=proj[j][pos])
                e_sum[j, pos], v_sum[j, pos] = (e[:, rows].sum(axis=1),
                                                v[:, rows].sum(axis=1))
                drift_max[j, pos] = drift[:, rows].max(axis=1)
            energy[:, pos], variance[:, pos], defect[:, pos] = \
                e[:, keep].T, v[:, keep].T, d[:, keep].T
            done += held
            held = 0

        c = np.tile(c0, (count, 1)) if count > 1 else c0   # a batch of one:
        work = kernel.buffers(c.shape)                     # a rank-1 row
        e = kernel.mean_energy(c)
        hold(c, e, 1.0)
        for k in range(noise.n_blocks):   # coefficients (steps, B, 1) or (steps,)
            coeff = noise.block(k)[np.s_[:, :, None] if count > 1 else np.s_[:, 0]]
            start, block = k * plan.block, len(coeff)
            # a failed row runs on as nan/inf, reported at the end of the
            # block, or of the batch if a chunk before its own may fail later
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                c, e = kernel.steps(c, e, coeff, norms, work, hold, range(
                    (-start - 1) % stride, block, stride))
                if start + block == n_steps and n_steps % stride:
                    hold(c, e, norms[block - 1])     # the last step
            bad = ~((norms[:block] >= _MIN_NORM_SQ) & (norms[:block] < np.inf))
            for j, lo in enumerate(starts):
                part = bad[:, lo:lo + chunk]
                if j not in failed and part.any():
                    i, b = divmod(int(np.argmax(part)), part.shape[1])
                    b += lo
                    failed[j] = DegenerateStateError(
                        f"trajectory {streams[b].stream_index} failed at step "
                        f"{start + i + 1}: norm^2 = {float(norms[i, b])!r}")
            if 0 in failed:
                raise failed[0]
            flush()
    if failed:
        raise failed[min(failed)]
    c, e = c.reshape(count, n), np.reshape(e, count)
    times = kernel.dt * record_steps(n_steps, stride).astype(float)
    records = [[] for _ in starts]
    for r, b in enumerate(keep):
        records[b // chunk].append(TrajectoryRecord(
            times=times, energy_mean=energy[r], energy_variance=variance[r],
            norm_drift=defect[r], final_state=kernel.vecs @ c[b]))
    terminal = kernel.variance(c[None], e[None])[0]
    return [_BatchSums(
        projector_sum=proj[j], energy_sum=e_sum[j], variance_sum=v_sum[j],
        max_norm_drift=drift_max[j],
        winners=np.bincount(np.argmax(np.abs(c[lo:lo + chunk]) ** 2, axis=1),
                            minlength=n),
        terminal_variance=terminal[lo:lo + chunk], records=records[j])
        for j, lo in enumerate(starts)]


def norm_defect_samples(psi, h, tau0: float, dt: float, n: int,
                        stream: NoiseStream) -> np.ndarray:
    """Pre-renormalization ||psi + dpsi||^2 - 1 for n independent noise draws
    from the same initial state.

    n copies of psi's eigenbasis row step once against a draw each, 4096
    at a time.  The sample mean estimates the O(dt^2) discretization
    defect; individual draws fluctuate at O(dt) around it with zero mean.
    """
    psi = qcore.as_state(psi)
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    dxi = sample_dxi_block(dt, n, stream)
    kernel = _EigenKernel(qcore.as_operator(h), dt, tau0)
    c = np.tile(kernel.vecs.conj().T @ psi, (min(n, 4096), 1))
    coeff = kernel.coefficients(dxi[None, :])[0]
    return np.concatenate([
        kernel.step(c[:len(z)], kernel.mean_energy(c[:len(z)]), z)[2]
        for z in np.split(coeff, range(4096, n, 4096))]) - 1.0


@dataclass
class TrajectoryRecord:
    """Time series of observable statistics along one trajectory."""

    times: np.ndarray
    energy_mean: np.ndarray
    energy_variance: np.ndarray
    norm_drift: np.ndarray
    final_state: np.ndarray

    def write_csv(self, path, header: dict):
        qcore.write_table(path, header, ["t", "e_mean", "e_var", "norm_drift"],
                          zip(self.times, self.energy_mean,
                              self.energy_variance, self.norm_drift))

    def write_json(self, path, header: dict):
        qcore.write_json(path, {
            "header": header,
            "times": self.times,
            "energy_mean": self.energy_mean,
            "energy_variance": self.energy_variance,
            "norm_drift": self.norm_drift,
            "final_state": self.final_state,
        })


def record_count(n_steps: int, stride: int) -> int:
    """Number of record points: every stride-th step plus the last."""
    return -(-n_steps // stride) + 1


def record_steps(n_steps: int, stride: int) -> np.ndarray:
    """Step indices stored in a record: every stride-th step plus the last
    (a stride beyond n_steps, which records the same, is cut to fit int64)."""
    return np.minimum(np.arange(record_count(n_steps, stride))
                      * min(stride, n_steps), n_steps)
