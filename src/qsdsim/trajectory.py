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
as a rank-1 row (n,): fewer NumPy calls, and no casts.

Determinism rule: a value per trajectory (its amplitudes, <H>, Var H,
norm) comes only from elementwise ops and sums along a row, whose bits
depend neither on how many rows share a batch, nor on whether the row
steps alone as rank 1, nor on how many record points share a flush, so
trajectory k of an ensemble replays as a batch of one.

One driver, _integrate_eigenbasis, steps a batch a noise block (at most
NOISE_BLOCK_BYTES) at a time; one record reducer, _Record, buffers its
record points and reduces them a buffer at a time, each chunk (a fixed
range of rows) on its own rows: sums along rows, and the projectors of
the buffered points in one stacked BLAS call per chunk (the same zgemm per
point as a call per point; chunk boundaries are fixed).  Every array a
batch writes is a view of one allocation (_batch_layout), so no draw, step
or flush allocates one.  Each process keys the noise streams of the rows
it steps, and a forked row helper may step the upper half of the rows
(_RowHelper): no output bit depends on which process steps a row.
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
NOISE_BLOCK_BYTES = 7_550_000  # bytes of a full noise block with its norms
BATCH_BUFFER_BYTES = 1 << 20   # noise group and record buffer of a batch
NOISE_GROUP_BYTES = 1 << 17    # of it, the streams drawn at once
SPLIT_WORK = 1 << 22           # row-steps x (n + 11) worth a row helper
HELPER_BASE_BYTES = 5 << 20    # a row helper's copied pages: a base
HELPER_STREAM_BYTES = 1 << 10  # and a term per stream (see batch_plan)
_SHARED = ("held_c", "norms", "held_e", "held_nrm_sq")  # written by a helper
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

    Projector sums, in the energy eigenbasis, are of the last P =
    plan.projectors record times.  Series exist only for retained rows.
    """

    projector_sum: np.ndarray        # (P, n, n)  sum_b c_b c_b^H
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
    projectors: int   # trailing record points a chunk sums projectors at
    block: int        # steps of noise drawn per generator call
    group: int        # streams drawn at once
    capacity: int     # record points buffered between flushes
    helper: int       # bytes a forked row helper holds; 0: no helper
    reduction: int    # bytes of a chunk's series, any projector sum, times
    bytes: int        # what a worker holds for the batch, any helper's too


def _batch_layout(row: tuple, capacity: int, block: int, steps=None,
                  group: int = 0) -> dict:
    """Name -> (shape, dtype) of every array that a batch of rows (B, n), or
    a rank-1 row (n,), writes between its first and last step, with
    `capacity` record points buffered and noise blocks of `block` steps:
    the step's (see _EigenKernel.buffers) for the rows `steps` (all if
    None), the record buffer (amplitudes, <H>, norm^2), the block's squared
    norms, a flush's temporaries (variance's hd, then the conjugated chunk,
    terms and result, the norm defect and its abs), and the noise block of
    the rows stepped, (block, B) or (block,), with, for two rows or more,
    the draw buffer of `group` streams (see fill_dxi_blocks)."""
    n, points = row[-1], (capacity,) + (row[:-1] or (1,))
    row = steps or row                 # the rows stepped
    batch = row[:-1]                   # (B,), or () for a rank-1 row
    offsets = float if batch else complex
    return {"amps": ((2,) + row, complex), "f": (row, complex),
            "hd": (row, offsets), "cur": (row, offsets), "e": (batch, float),
            **({"r": (batch, float), "rows": (row, np.intp),
                "tiled": (row, float)} if batch else {}),
            "held_c": (points + (n,), complex),
            "norms": ((block,) + points[1:], float),
            **dict.fromkeys(("held_e", "held_nrm_sq", "var", "defect",
                             "drift"), (points, float)),
            **dict.fromkeys(("var_hd", "var_terms"), ((2 * n,) + points, float)),
            "noise": ((block,) + batch, complex),
            **({"group": ((group, block, 2), float)} if batch else {})}


def _sizes(layout: dict, align: int = _LINE) -> list:
    """The bytes of each array of layout, up to a multiple of align."""
    return [-(-math.prod(shape) * np.dtype(dtype).itemsize // align) * align
            for shape, dtype in layout.values()]


def _arena(layout: dict, shared: bool = False) -> dict:
    """The arrays of layout as views of one allocation, in order from a
    page boundary, each _sizes apart: the same offsets mod 4096 wherever
    the allocator puts it.  A shared arena is an anonymous mmap, which a
    process forked later writes in place."""
    size = _PAGE + sum(_sizes(layout))
    if shared:      # mmap takes 1 ms to import: only a split batch pays it
        import mmap
        raw = np.frombuffer(mmap.mmap(-1, size), dtype=np.uint8)
    else:
        raw = np.empty(size, dtype=np.uint8)
    at, arena = -raw.ctypes.data % _PAGE, {}
    for (name, (shape, dtype)), size in zip(layout.items(), _sizes(layout)):
        arena[name] = np.ndarray(shape, dtype, raw, at)
        at += size
    return arena


def batch_plan(count: int, n: int, n_steps: int, stride: int, kept: int,
               chunk: int, spare_cpu: bool, projectors: int) -> BatchPlan:
    """The plan of a batch of count rows of dimension n over n_steps steps,
    in chunks of `chunk` rows summing their projectors at the last
    `projectors` record points (0: none; all: record_count), kept of them
    recording their series.  A narrower batch may run it too.

    A full noise block is NOISE_BLOCK_BYTES of noise with its norms, 24
    bytes a row and step (614 steps of 512 rows), and a batch draws at
    most a full block at a time: all its n_steps at once if they fit.  A
    row that fails runs on as nan to the end of its block before the batch
    raises.  The record capacity is the points whose part of the batch's
    layout fits BATCH_BUFFER_BYTES beside the noise group: at least one,
    at most the points of a block.

    The batch splits (helper) if spare_cpu and os.fork allow, it has two
    rows or more and count x n_steps x (n + 11) is at least SPLIT_WORK: a
    row helper steps its upper half (_RowHelper).  On a 2-CPU host a row's
    step takes about 3.6 (n + 11) ns and a split, which halves the steps,
    about 2.5 ms: it breaks even near 2e6 (24 x 1000 steps at n = 64 lost
    2.3 ms, 64 x 1000 at n = 32 won 1.1 ms), half of SPLIT_WORK.

    The bytes count the chunks' reductions (`reduction` each), the arena
    of each process that steps rows, from the very _batch_layout that
    _RowHelper.arena builds (a helper's buffers no record point and
    leaves out the arrays it shares, which take a page of their own), two
    buffers of up to np.getbufsize() floats NumPy's iterator may take in
    a flush, the first <H>, the kept series and the record times.  A
    helper (`helper`, its bytes) adds its streams and a copy of each page
    resident at its fork that either process writes: a base and a term
    per stream, above its peak Private_Dirty in a fresh interpreter (0.69
    to 0.91 of `helper`), but not of heap a process freed before the fork
    and reuses.
    """
    block = min(n_steps, max(1, NOISE_BLOCK_BYTES // (24 * count)))
    group = max(1, min(count, NOISE_GROUP_BYTES // (16 * block)))
    row = (count, n) if count > 1 else (n,)
    per_point = (sum(_sizes(_batch_layout(row, 1, block), 1))
                 - sum(_sizes(_batch_layout(row, 0, block), 1)))
    capacity = max(1, min((BATCH_BUFFER_BYTES - NOISE_GROUP_BYTES) // per_point,
                          block // stride + 2))
    n_rec = record_count(n_steps, stride)
    reduction = n_rec * 4 * 8 + projectors * 16 * n * n

    def arena(rows, points):   # of a process stepping `rows` of the rows
        layout = _batch_layout(row, points, block,
                               (rows, n) if rows > 1 else (n,), group)
        return _PAGE + sum(_sizes({k: v for k, v in layout.items()
                                   if points or k not in _SHARED}))

    helper = (arena(count - count // 2, 0) + HELPER_BASE_BYTES
              + HELPER_STREAM_BYTES * count
              if spare_cpu and count > 1 and hasattr(os, "fork")
              and count * n_steps * (n + 11) >= SPLIT_WORK else 0)
    held = (-(-count // chunk) * reduction
            + arena(count // 2 if helper else count, capacity) + helper
            + (_PAGE if helper else 0)      # the shared buffer's own page
            + 16 * min(np.getbufsize(), capacity * count * 2 * n)  # iterator
            + 8 * count                 # <H> before the first step
            + (24 * kept + 8) * n_rec)  # kept series and times
    return BatchPlan(n_steps, stride, chunk, projectors, block, group,
                     capacity, helper, reduction, held)


class _RowHelper:
    """A batch's split under a plan with a helper: a process forked on
    entry steps rows [count // 2, count), the parent those before (`rows`:
    this process's; all if no helper forks).  Each writes only its rows of
    the record buffer and the block's norms, a shared mmap made before the
    fork (`shared`).  At each flush point, meet() has the parent wait for
    the helper's rows (a byte on a pipe) and reduce every row; release()
    gives them back, which the helper awaits in ready() before it next
    writes them.  The helper writes nothing to stdout or stderr and leaves
    with os._exit; the parent kills and reaps it on every path, and meet()
    raises if it died."""

    def __init__(self, plan: BatchPlan, count: int, n: int):
        self.rows, self.pid, self.child = slice(0, count), None, False
        self.plan, self.row = plan, (count, n) if count > 1 else (n,)  # rank 1
        self.owed = False     # the helper's rows are handed over
        layout = _batch_layout(self.row, plan.capacity, plan.block)
        self.shared = (_arena({k: layout[k] for k in _SHARED}, shared=True)
                       if plan.helper and count > 1 else {})

    def arena(self) -> dict:
        """This process's arena: its rows' layout and the shared arrays."""
        plan, n, rows = self.plan, self.row[-1], self.rows.stop - self.rows.start
        layout = _batch_layout(self.row, 0 if self.child else plan.capacity,
                               plan.block, (rows, n) if rows > 1 else (n,),
                               plan.group)
        return {**_arena({k: v for k, v in layout.items()
                          if k not in self.shared}), **self.shared}

    def __enter__(self):
        if not self.shared:
            return self
        import numpy.random  # noqa: F401  (before the fork: the helper shares it)
        fds = os.pipe() + os.pipe()     # to the parent, to the helper
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on forking a process with threads
                # (BLAS's); the helper only steps rows and copies numbers
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:     # no process to spare: the batch steps every row
            self._close(fds)
            return self
        half, self.child = self.rows.stop // 2, pid == 0
        self.rows = slice(half, self.rows.stop) if self.child else slice(0, half)
        self._fds = (fds[2], fds[1]) if self.child else (fds[0], fds[3])
        self._close(set(fds) - set(self._fds))
        self.pid = None if self.child else pid
        if self.child:
            os.closerange(1, 3)     # no stdout or stderr
        return self

    def ready(self):
        """In the helper: wait for its rows back, if handed over."""
        if self.owed and not os.read(self._fds[0], 1):
            os._exit(1)     # the parent is gone
        self.owed = False

    def meet(self, block: int, n_blocks: int) -> bool:
        if self.child:
            self.ready()
            os.write(self._fds[1], b"\0")
            self.owed = True
            return False
        if self.pid is not None and not os.read(self._fds[0], 1):
            pid, status = os.waitpid(self.pid, 0)
            self._close(self._fds)
            self.pid = None
            raise RuntimeError(
                f"the row helper process {pid} ended (exit status "
                f"{os.waitstatus_to_exitcode(status)}) before it handed over "
                f"its rows in noise block {block + 1} of {n_blocks}")
        return True

    def release(self):
        try:
            if self.pid is not None:
                os.write(self._fds[1], b"\0")
        except BrokenPipeError:     # it left after its last flush point
            pass

    @staticmethod
    def _close(fds):
        for fd in fds:
            os.close(fd)

    def __exit__(self, failed, *exc):
        if self.child:
            os._exit(1 if failed else 0)
        if self.pid is not None:
            import signal
            os.kill(self.pid, signal.SIGKILL)   # done, or stepping for nobody
            os.waitpid(self.pid, 0)
            self._close(self._fds)


class _Record:
    """The record reducer of a batch, for this process's rows (split.rows),
    and the only caller of the row helper's ready(), meet() and release().

    A row whose squared norm leaves [_MIN_NORM_SQ, inf) fails its chunk.
    The batch raises DegenerateStateError for the failed chunk of lowest
    index, naming its first bad step and, at that step, its lowest failed
    row: what that chunk raises alone, whichever chunks share its batch.
    """

    def __init__(self, kernel: _EigenKernel, rows: range, keep, split: _RowHelper):
        self.kernel, self.rows, self.keep = kernel, rows, np.array(keep, np.intp)
        self.split, self.plan, self.arena = split, split.plan, split.arena()
        self.starts = range(0, len(rows), split.plan.chunk)
        self.n_rec = record_count(split.plan.n_steps, split.plan.stride)
        # points buffered, points reduced, the last one's index; the block
        self.held = self.done = self.last = self.k = 0
        self.failed = {}          # chunk -> the error of its first bad step
        if not split.child:
            n, chunks, t = len(kernel.energies), len(self.starts), self.n_rec
            self.proj = np.empty((chunks, self.plan.projectors, n, n), complex)
            self.e_sum, self.v_sum, self.drift_max = np.empty((3, chunks, t))
            self.series = np.empty((3, t, len(self.keep)))

    def hold(self, c, e, nrm_sq):
        """Buffer the rows' amplitudes, <H> and squared norm."""
        self.split.ready()
        mine, i, a = self.split.rows, self.held, self.arena
        a["held_c"][i, mine], a["held_e"][i, mine] = c, e
        a["held_nrm_sq"][i, mine] = nrm_sq
        self.held += 1
        if self.held == self.plan.capacity:
            self.flush()

    def block(self, k: int, steps: int):
        """Start noise block k, of `steps` steps: its norms, free to write
        now, and its steps that record: every stride-th, and the run's last."""
        self.k, start, stride = k, k * self.plan.block, self.plan.stride
        self.split.ready()
        due = set(range((-start - 1) % stride, steps, stride))
        if start + steps == self.plan.n_steps:
            due.add(steps - 1)
        return self.arena["norms"][:steps, self.split.rows], due

    def flush(self, steps: int = 0):
        """A flush point, where the process that reduces fails the rows
        whose norms left range in a block of `steps` steps ending here, then
        reduces the buffered points, each chunk on its rows."""
        plan, arena, held, done = self.plan, self.arena, self.held, self.done
        self.held = 0
        if not self.split.meet(self.k, -(-plan.n_steps // plan.block)):
            return
        nrm_sq = arena["norms"][:steps]  # a nan fails min and max, as a bad row
        if steps and not (_MIN_NORM_SQ <= nrm_sq.min() and nrm_sq.max() < np.inf):
            bad = ~((nrm_sq >= _MIN_NORM_SQ) & (nrm_sq < np.inf))
            for j, lo in enumerate(self.starts):
                part = bad[:, lo:lo + plan.chunk]
                if j not in self.failed and part.any():
                    i, b = divmod(int(np.argmax(part)), part.shape[1])
                    self.failed[j] = DegenerateStateError(
                        f"trajectory {self.rows[lo + b]} failed at step "
                        f"{self.k * plan.block + i + 1}: norm^2 = "
                        f"{float(nrm_sq[i, lo + b])!r}")
        if 0 in self.failed:
            raise self.failed[0]
        if held:
            c, e = arena["held_c"][:held], arena["held_e"][:held]
            pos, n = slice(done, done + held), c.shape[-1]
            hd, terms = (arena[k].reshape(-1)[:2 * n * e.size].reshape(
                (2 * n,) + e.shape) for k in ("var_hd", "var_terms"))
            v = self.kernel.variance(c, e, (hd, terms, arena["var"][:held]))
            d = np.sqrt(arena["held_nrm_sq"][:held], out=arena["defect"][:held])
            d -= 1.0
            drift = np.abs(d, out=arena["drift"][:held])
            skip = self.n_rec - plan.projectors  # points without projectors
            first = max(done, skip)     # the first point summed
            for j, lo in enumerate(self.starts):
                rows = slice(lo, lo + plan.chunk)
                if first < done + held:
                    part = c[first - done:, rows]
                    conj = arena["var_hd"].reshape(-1).view(np.complex128)
                    np.matmul(part.transpose(0, 2, 1), np.conjugate(
                        part, out=conj[:part.size].reshape(part.shape)),
                        out=self.proj[j][first - skip:done + held - skip])
                np.sum(e[:, rows], axis=1, out=self.e_sum[j, pos])
                np.sum(v[:, rows], axis=1, out=self.v_sum[j, pos])
                np.max(drift[:, rows], axis=1, out=self.drift_max[j, pos])
            for series, x in zip(self.series, (e, v, d)):
                np.take(x, self.keep, 1, series[pos], "clip")
            self.done, self.last = done + held, held - 1
        self.split.release()

    def sums(self) -> list[_BatchSums]:
        """Each chunk's _BatchSums, in row order, unless a chunk failed."""
        if self.failed:
            raise self.failed[min(self.failed)]
        plan, c = self.plan, self.arena["held_c"][self.last]  # the last step
        terminal = self.arena["var"][self.last].copy()
        times = self.kernel.dt * record_steps(plan.n_steps, plan.stride)
        records = [[] for _ in self.starts]
        for r, b in enumerate(self.keep):
            records[b // plan.chunk].append(TrajectoryRecord(
                times, *self.series[:, :, r], self.kernel.vecs @ c[b]))
        return [_BatchSums(
            self.proj[j], self.e_sum[j], self.v_sum[j], self.drift_max[j],
            np.bincount(np.argmax(np.abs(c[lo:lo + plan.chunk]) ** 2, axis=1),
                        minlength=c.shape[1]),
            terminal[lo:lo + plan.chunk], records[j])
            for j, lo in enumerate(self.starts)]


def _integrate_eigenbasis(kernel: _EigenKernel, c0, seed: int, rows: range,
                          keep, plan: BatchPlan) -> list[_BatchSums]:
    """Integrate trajectories `rows` (a range) from eigenbasis amplitudes
    c0 as one batch of at most the rows planned, and reduce it (_Record) a
    chunk of plan.chunk consecutive rows at a time (the last may be
    shorter): each chunk's _BatchSums, in row order, holds the bits of that
    chunk run as a batch of its own.  The rows in keep (batch rows) also
    record <H>, Var H, the norm defect ||psi + dpsi|| - 1 and their final
    state.  Trajectory k draws from NoiseStream(seed, k) (fill_dxi_blocks,
    bit-identical to per-step sample_dxi), keyed in the process that steps it.
    """
    # a helper is forked on entry, before the batch allocates (batch_plan)
    with _RowHelper(plan, len(rows), len(c0)) as split:
        streams = [NoiseStream(seed, k) for k in rows[split.rows]]
        record = _Record(kernel, rows, keep, split)
        arena = record.arena
        work = kernel.buffers(arena["f"].shape, arena)  # the rows stepped
        c = work[0][0][0]      # the first amplitude buffer
        c[...] = c0
        e = kernel.mean_energy(c)
        record.hold(c, e, 1.0)
        for k in range(-(-plan.n_steps // plan.block)):
            dxi = arena["noise"][:plan.n_steps - k * plan.block]
            fill_dxi_blocks(kernel.dt, streams, dxi, arena.get("group"))
            coeff = kernel.coefficients(dxi)    # (steps, B, 1) or (steps,)
            norms, due = record.block(k, len(coeff))
            # a failed row runs on as nan/inf; the flush at block end fails it
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                c, e = kernel.steps(c, e, coeff, norms, work, record.hold, due)
            record.flush(len(coeff))
    return record.sums()


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
