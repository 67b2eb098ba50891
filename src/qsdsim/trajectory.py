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
its test oracles.  It steps B rows as a (B, n) array, and a batch of one
(run_trajectory, or a job of one trajectory) as a rank-1 row (n,) with
scalar <H>, coefficient and norm and complex energy offsets: fewer NumPy
calls, and no casts.

Determinism rule: a value per trajectory (its amplitudes, <H>, Var H,
norm) comes only from elementwise ops and sums along a row, whose bits
depend neither on how many rows share a batch, nor on whether the row
steps alone as rank 1, nor on how many record points share a flush, so
trajectory k of an ensemble replays as a batch of one.  The batch is the
unit of stepping and the chunk, a fixed range of its rows, the unit of
reduction: record points are buffered and reduced a buffer at a time,
each chunk on its own rows, the projectors of all buffered points in one
stacked BLAS call per chunk (the same zgemm per point as a call per
point).  A sum per chunk may use BLAS because chunk boundaries are fixed.

A batch's working memory is one layout (_batch_layout): every array it
writes between its first and last step, made as views of one allocation
at fixed offsets from a page boundary, so no step, flush or block check
allocates an array, and batch_plan charges that layout.  The noise comes
in blocks of at most NOISE_BLOCK_BYTES, in buffers of their own: a batch
whose noise fits one block (a lone trajectory of up to 524 288 steps)
draws it once, before it steps; a wider or longer one draws block k+1,
and turns it into step coefficients, while it steps block k, in a helper
process forked for the batch when a CPU is spare (see _NoiseBlocks), else
itself between the two.  Each stream draws the same numbers in the same
order either way, so no output bit depends on which process draws.
batch_plan decides all this once per run, and states the memory it takes.
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
_PAGE, _LINE = 4096, 64  # a batch's arena starts on a page, each array on a line
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
    (B, n) for a batch of rows, (n,) for a rank-1 row.  In the eigenbasis
    of H (columns of `vecs`), Hd = diag(E - e) with e = sum_k |c_k|^2 E_k,
    and the increment of psd_increment becomes, per component,

        c_k *= 1 + hd_k (-i dt - (tau0/2) dt hd_k + sqrt(tau0) dxi),
                                                        hd_k = E_k - e.

    <H> is carried with the amplitudes: steps takes the rows' <H> and
    returns the next one.  Every method keeps the determinism rule.
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
        dxi in place, returned as a view that broadcasts over rows:
        (steps, B, 1), or the (steps,) scalars of a rank-1 row."""
        dxi *= self._diffusion
        dxi += self._drift
        return dxi.reshape(dxi.shape + (1,) * (dxi.ndim - 1))

    def mean_energy(self, c) -> np.ndarray:
        v = c.view(np.float64)
        return _einsum("...i,...i,i->...", v, v, self._pairs)

    def variance(self, c, e, out=None) -> np.ndarray:
        """Var H of each row of c (..., B, n), given its <H> e (..., B),
        into out = (hd, terms, v), shaped (2n,) + e.shape twice and e.shape
        (made if None): each float w of a row adds ((w w) hd) hd, summed
        over the row left to right, the bits of einsum("bi,bi,bi,bi->b") on
        one batch for any number of record points at once."""
        w = np.moveaxis(c.view(np.float64), -1, 0)
        hd, terms, v = out or (*np.empty((2,) + w.shape), np.empty(e.shape))
        np.subtract(self._pairs.reshape((-1,) + (1,) * e.ndim), e, hd)
        np.multiply(w, w, terms)
        terms *= hd
        terms *= hd
        np.copyto(v, terms[0])
        for t in terms[1:]:
            v += t
        return v

    def buffers(self, shape, arena=None):
        """What steps writes for rows (B, n) or a rank-1 row (n,), as views
        of a batch's arena (_batch_layout; the step's arrays alone if None):
        two amplitude buffers that take turns, with float views (also
        transposed), f, (write view, operand) pairs of hd and the curvature
        term (a real array twice; for a rank-1 row, a complex one at
        imaginary part +0.0, which no op casts, under its real view), <H>;
        a batch adds row reciprocals, np.take's indices, tiled energies."""
        a = arena or _arena(_batch_layout(shape, 0, 0))
        amps = [(c, c.view(np.float64), c.view(np.float64).T) for c in a["amps"]]
        if len(shape) == 1:
            a["hd"][...] = a["cur"][...] = 0
            return (amps, a["f"], (a["hd"].real, a["hd"]),
                    (a["cur"].real, a["cur"]), a["e"], None, None, self.energies)
        a["rows"][...] = np.arange(shape[0])[:, None]
        a["tiled"][...] = self.energies
        return (amps, a["f"], (a["hd"],) * 2, (a["cur"],) * 2, a["e"], a["r"],
                a["rows"], a["tiled"])

    def steps(self, c, e, coeff, norms, work, hold=None, due=()):
        """Step rows c (B, n) with <H> e (B,) through coefficients coeff
        (steps, B, 1), or a rank-1 row c (n,) with scalar e through coeff
        (steps,), writing into work = buffers(c.shape) (c is only read);
        return the last c and <H>.  Each step's squared norms before
        renormalization go to norms (steps, B); after each step i in due,
        hold(c, e, norm^2) gets the rows.

        hd is formed negated, as <H> - E_k, and the update re-signed to
        1 - (coeff - curvature hd) hd: IEEE negation is exact, so these are
        the bits of 1 + (coeff + curvature hd) hd with hd = E_k - <H>."""
        amps, f, (hd_out, hd), (cur_out, cur), e_next, r, rows, tiled = work
        j = int(c is amps[0][0])
        for i, k in enumerate(coeff):
            np.subtract(e if r is None else e.take(rows, None, hd, "clip"),
                        tiled, hd_out)
            np.multiply(self._curvature, hd_out, cur_out)
            np.subtract(k, cur, f)
            np.multiply(f, hd, f)
            np.subtract(self._one, f, f)
            # not in place: NumPy multiplies one element in place as a
            # reduction, without the fused multiply-add a batch row gets
            nxt, w, columns = amps[j]
            np.multiply(f, c, nxt)
            c, j = nxt, 1 - j
            # times the reciprocal on the float view, transposed so that a
            # row's norm broadcasts: a complex divide by a real's bits;
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


def _batch_layout(row: tuple, capacity: int, block: int) -> dict:
    """Name -> (shape, dtype) of every array that a batch of rows (B, n), or
    a rank-1 row (n,), writes between its first and last step, with
    `capacity` record points buffered and noise blocks of `block` steps:
    the step's (see _EigenKernel.buffers), the record buffer (amplitudes,
    <H>, norm^2), the block's squared norms, and a flush's temporaries:
    variance's hd (then the conjugated chunk), terms and result, the norm
    defect and its abs."""
    n, batch = row[-1], row[:-1]       # batch: (B,), or () for a rank-1 row
    points = (capacity,) + (batch or (1,))
    offsets = float if batch else complex
    return {"amps": ((2,) + row, complex), "f": (row, complex),
            "hd": (row, offsets), "cur": (row, offsets), "e": (batch, float),
            **({"r": (batch, float), "rows": (row, np.intp),
                "tiled": (row, float)} if batch else {}),
            "held_c": (points + (n,), complex),
            "norms": ((block,) + points[1:], float),
            **dict.fromkeys(("held_e", "held_nrm_sq", "var", "defect",
                             "drift"), (points, float)),
            **dict.fromkeys(("var_hd", "var_terms"), ((2 * n,) + points, float))}


def _sizes(layout: dict, align: int = _LINE) -> list:
    """The bytes of each array of layout, up to a multiple of align."""
    return [-(-math.prod(shape) * np.dtype(dtype).itemsize // align) * align
            for shape, dtype in layout.values()]


def _arena(layout: dict) -> dict:
    """The arrays of layout as views of one allocation, in order from a
    page boundary, each _sizes apart: the same offsets mod 4096 wherever
    the allocator puts it."""
    raw = np.empty(_PAGE + sum(_sizes(layout)), dtype=np.uint8)
    at, arena = -raw.ctypes.data % _PAGE, {}
    for (name, (shape, dtype)), size in zip(layout.items(), _sizes(layout)):
        arena[name] = np.ndarray(shape, dtype, raw, at)
        at += size
    return arena


def batch_plan(count: int, n: int, n_steps: int, stride: int, kept: int,
               chunk: int, spare_cpu: bool, projectors: bool) -> BatchPlan:
    """The plan of a batch of count rows of dimension n over n_steps steps,
    in chunks of `chunk` rows summing their projectors if asked, kept of
    them recording their series.  A narrower batch may run it too.

    A full noise block is NOISE_BLOCK_BYTES of noise with its norms, 24
    bytes a row and step (1024 steps of 512 rows).  A batch of at most a
    full block draws its n_steps at once, in-process; a longer one draws
    3/5 of a full block at a time into two buffers that take turns, with a
    forked noise helper if spare_cpu and os.fork allow.  A row that fails
    runs on as nan to the end of its block before the batch raises.  The
    record capacity is the points whose part of the batch's layout fits
    BATCH_BUFFER_BYTES beside the noise group: at least one, at most the
    points of a block.

    The bytes count the chunks' reductions (`reduction` each), the noise
    buffers, the group buffer of the process that draws (a lone row draws
    straight into its block), the batch's layout in its page-aligned
    allocation, two buffers of up to np.getbufsize() floats NumPy's
    iterator may take in a flush, the first <H>, the kept series and the
    record times.  A helper adds a copy of each page resident at its fork
    that either process writes: a base and a term per stream, the upper
    envelope with a margin of its peak Private_Dirty (shared noise left
    out) in a fresh interpreter, 4.2 MiB for 256 rows at n = 32, 3.7 and
    7.4 MiB for 2000 and 8192 streams.  The batch's reductions and layout
    are not among them: they are allocated after the fork.  A process that
    freed more than that before the fork may hand the batch pages that are
    still shared, and the helper then keeps copies of them too.
    """
    full = max(1, NOISE_BLOCK_BYTES // (24 * count))
    block = n_steps if n_steps <= full else max(1, 3 * full // 5)
    n_blocks = -(-n_steps // block)
    helper = spare_cpu and n_blocks > 1 and hasattr(os, "fork")
    group = max(1, min(count, NOISE_GROUP_BYTES // (16 * block)))
    row = (count, n) if count > 1 else (n,)
    per_point = (sum(_sizes(_batch_layout(row, 1, block), 1))
                 - sum(_sizes(_batch_layout(row, 0, block), 1)))
    capacity = max(1, min((BATCH_BUFFER_BYTES - NOISE_GROUP_BYTES) // per_point,
                          block // stride + 2))
    n_rec = record_count(n_steps, stride)
    reduction = n_rec * ((16 * n * n if projectors else 0) + 4 * 8)
    held = (-(-count // chunk) * reduction
            + 16 * count * block * min(2, n_blocks)      # noise buffers
            + (16 * group * block if count > 1 else 0)   # group buffer
            + _PAGE + sum(_sizes(_batch_layout(row, capacity, block)))
            + 16 * min(np.getbufsize(), capacity * count * 2 * n)  # iterator
            + 8 * count                 # <H> before the first step
            + (24 * kept + 8) * n_rec   # kept series and times
            + (HELPER_BASE_BYTES + HELPER_STREAM_BYTES * count if helper else 0))
    return BatchPlan(n_steps, stride, chunk, projectors, block, group,
                     capacity, helper, reduction, held)


class _NoiseBlocks:
    """The coefficient blocks of a batch of streams under a plan, in
    order: block k holds kernel.coefficients of the increments of steps
    k * plan.block onwards, at most plan.block of them, as (steps,
    len(streams)), turned in place by the process that draws it.

    Blocks take turns in two buffers (one, if the batch draws one block).
    Used as a context manager; block(k) returns block k once it is drawn,
    and tells the drawer that the buffer of block k-1 is free.  Without a
    helper, block(k) draws it itself.  With one (plan.helper), a process
    forked on entry draws every block from its copies of the streams into
    an anonymous shared mmap, and the two pass a byte per block over two
    pipes: "block ready" to the parent, "buffer free" to the helper.  The
    helper writes nothing to stdout or stderr and leaves with os._exit; on
    exit the parent kills and reaps it, on every path, and a helper that
    dies makes block() raise.  If the fork fails, the batch draws itself.
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

    Row b draws its increments from streams[b] in blocks (fill_dxi_blocks,
    bit-identical to per-step sample_dxi; with plan.helper a forked
    process draws them, and the streams given are not advanced).  At every
    step of record_steps(plan.n_steps, plan.stride) the rows' amplitudes,
    <H> and squared norm go into the record buffer, which a flush reduces
    when it is full and at the end of each noise block.  So each chunk's
    _BatchSums, returned in row order, holds the bits of that chunk run as
    a batch of its own.  The rows listed in keep (batch rows) also record
    <H>, Var H and the norm defect ||psi + dpsi|| - 1, and their final
    state, in the _BatchSums of their chunk.

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
    row = (count, n) if count > 1 else (n,)     # a batch of one: a rank-1 row
    # a helper is forked on entry, before the batch allocates (batch_plan)
    with _NoiseBlocks(kernel, streams, plan) as noise:
        proj = (np.empty((len(starts), n_rec, n, n), dtype=np.complex128)
                if plan.projectors else [None] * len(starts))
        e_sum, v_sum, drift_max = np.empty((3, len(starts), n_rec))
        energy, variance, defect = np.empty((3, n_rec, len(keep)))
        arena = _arena(_batch_layout(row, plan.capacity, plan.block))
        held_c, held_e, held_nrm_sq, norms = (
            arena[k] for k in ("held_c", "held_e", "held_nrm_sq", "norms"))
        held = done = 0      # record points buffered, and reduced before them
        failed = {}          # chunk -> the error of its first bad step

        def hold(c, e, nrm_sq):
            nonlocal held
            held_c[held], held_e[held], held_nrm_sq[held] = c, e, nrm_sq
            held += 1
            if held == plan.capacity:
                flush()

        def flush():
            """Reduce the buffered record points into their places, each
            chunk on its rows: sums along rows per point, and the projectors
            of all points in one stacked matmul (a call per point's zgemm)."""
            nonlocal held, done, terminal
            if not held:
                return
            pos = slice(done, done + held)
            e = held_e[:held]
            hd, terms = (arena[k].reshape(-1)[:2 * n * e.size].reshape(
                (2 * n,) + e.shape) for k in ("var_hd", "var_terms"))
            v = kernel.variance(held_c[:held], e,
                                (hd, terms, arena["var"][:held]))
            d = np.sqrt(held_nrm_sq[:held], out=arena["defect"][:held])
            d -= 1.0
            drift = np.abs(d, out=arena["drift"][:held])
            for j, lo in enumerate(starts):
                rows = slice(lo, lo + chunk)
                if plan.projectors:
                    part = held_c[:held, rows]
                    conj = arena["var_hd"].reshape(-1).view(np.complex128)
                    np.matmul(part.transpose(0, 2, 1), np.conjugate(
                        part, out=conj[:part.size].reshape(part.shape)),
                        out=proj[j][pos])
                np.sum(e[:, rows], axis=1, out=e_sum[j, pos])
                np.sum(v[:, rows], axis=1, out=v_sum[j, pos])
                np.max(drift[:, rows], axis=1, out=drift_max[j, pos])
            for series, x in ((energy, e), (variance, v), (defect, d)):
                np.take(x, keep, 1, series[pos], "clip")
            done, held, terminal = done + held, 0, v[-1]   # the last Var H

        work = kernel.buffers(row, arena)
        c = work[0][0][0]      # the first amplitude buffer
        c[...] = c0
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
            nrm_sq = norms[:block]    # a nan fails min and max, as a bad row
            if not (nrm_sq.min() >= _MIN_NORM_SQ and nrm_sq.max() < np.inf):
                bad = ~((nrm_sq >= _MIN_NORM_SQ) & (nrm_sq < np.inf))
                for j, lo in enumerate(starts):
                    part = bad[:, lo:lo + chunk]
                    if j not in failed and part.any():
                        i, b = divmod(int(np.argmax(part)), part.shape[1])
                        b += lo
                        failed[j] = DegenerateStateError(
                            f"trajectory {streams[b].stream_index} failed at "
                            f"step {start + i + 1}: norm^2 = "
                            f"{float(norms[i, b])!r}")
            if 0 in failed:
                raise failed[0]
            flush()
    if failed:
        raise failed[min(failed)]
    c, terminal = c.reshape(count, n), terminal.copy()   # of the last step
    times = kernel.dt * record_steps(n_steps, stride).astype(float)
    records = [[] for _ in starts]
    for r, b in enumerate(keep):
        records[b // chunk].append(TrajectoryRecord(
            times=times, energy_mean=energy[:, r], energy_variance=variance[:, r],
            norm_drift=defect[:, r], final_state=kernel.vecs @ c[b]))
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
    A sample beyond physical memory (32 bytes a draw) is refused first.
    """
    psi, h = qcore.as_state(psi), qcore.as_operator(h)
    qcore._check_match(h, psi)
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    n = qcore.whole("n", n)
    qcore.check_memory(32 * n, f"{n} norm defect samples", "lower n")
    dxi = sample_dxi_block(dt, n, stream)
    kernel = _EigenKernel(h, dt, tau0)
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
        qcore.write_json(path, {"header": header, **vars(self)})   # fields in order


def record_count(n_steps: int, stride: int) -> int:
    """Number of record points: every stride-th step plus the last."""
    return -(-n_steps // stride) + 1


def record_steps(n_steps: int, stride: int) -> np.ndarray:
    """Step indices stored in a record: every stride-th step plus the last
    (a stride beyond n_steps, which records the same, is cut to fit int64)."""
    return np.minimum(np.arange(record_count(n_steps, stride))
                      * min(stride, n_steps), n_steps)
