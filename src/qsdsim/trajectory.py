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
its test oracles.  A batch of B rows steps as a (B, n) array; a batch of
one (ensemble.run_trajectory, or a last batch with a single row) steps as
a rank-1 row (n,) with scalar <H>, coefficient and norm, which saves most
of NumPy's per-call overhead.

Determinism rule: a value per trajectory (its amplitudes, <H>, Var H,
norm) comes only from elementwise ops and sums along a row (row-wise
einsum, or a left-to-right sum), whose bits depend neither on how many
rows share a batch, nor on whether the row steps alone as rank 1, nor on
how many record points share a flush, so trajectory k of an ensemble
replays as a batch of one.  Record points are buffered and reduced a
buffer at a time; the sums per batch taken there (<H> and Var H) run
along the row axis of each record point, and the projector of each record
point is the same BLAS call as when it is reduced alone.  A sum per batch
may use BLAS because batch boundaries are fixed.
"""

import math
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
NOISE_BLOCK = 1024       # steps of noise drawn per generator call
BATCH_BUFFER_BYTES = 1 << 20   # noise group and record buffer of a batch
NOISE_GROUP_BYTES = 1 << 17    # of it, the streams drawn at once
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

    <H> is carried with the amplitudes: step takes the rows' <H> and
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
        self._curvature = -0.5 * tau0 * self.dt
        self._diffusion = math.sqrt(tau0)

    def coefficients(self, dxi) -> np.ndarray:
        """Turn dxi of shape (steps, B) or (steps,) into -i dt + sqrt(tau0)
        dxi in place (a block of noise is the largest buffer of a run);
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

    def step(self, c, e, coeff):
        """One step of rows c (B, n) with <H> e (B,) and coefficients coeff
        (B, 1), or of a rank-1 row c (n,) with scalars e and coeff; returns
        the renormalized amplitudes, their <H> (mean_energy) and each row's
        squared norm before renormalization.

        hd is formed negated, as <H> - E_k, and the update re-signed to
        1 - (coeff - curvature hd) hd: IEEE negation is exact, so these are
        the bits of 1 + (coeff + curvature hd) hd with hd = E_k - <H>.
        """
        hd = np.subtract.outer(e, self.energies)
        f = coeff - self._curvature * hd
        f *= hd
        np.subtract(1.0, f, out=f)
        # not in place: NumPy runs an in-place multiply of one element as
        # a reduction, without the fused multiply-add of its vector loop,
        # which would give a rank-1 row at n = 1 other bits than its batch row
        f = f * c
        w = f.view(np.float64)
        nrm_sq = _einsum("...i,...i->...", w, w)
        # times the reciprocal, on the float view: the bits of a complex
        # divide by a real, without the complex arithmetic; transposed, a
        # row's norm broadcasts along its floats
        columns = w.T
        columns *= np.reciprocal(np.sqrt(nrm_sq))
        # mean_energy of f, on the float view at hand
        return f, _einsum("...i,...i,i->...", w, w, self._pairs), nrm_sq


@dataclass
class _BatchSums:
    """Reductions of a batch of trajectories, one entry per record time.

    The projector sum is in the energy eigenbasis.  Per-trajectory series
    exist only for the retained rows.
    """

    projector_sum: np.ndarray        # (T, n, n)  sum_b c_b c_b^H
    energy_sum: np.ndarray           # (T,)  sum_b <H>_b
    variance_sum: np.ndarray         # (T,)  sum_b Var_b H
    max_norm_drift: np.ndarray       # (T,)  max_b |norm defect|
    winners: np.ndarray              # (n,)  rows whose largest final |c_k| is k
    terminal_variance: np.ndarray    # (B,)  final Var H of every row
    records: list                    # TrajectoryRecord of each retained row


def batch_buffers(count: int, n: int, n_steps: int, stride: int, kept: int):
    """(noise group, record capacity, bytes) of the working buffers of a
    batch of count rows of dimension n over n_steps steps, kept of them
    recording their series.

    The batch draws noise min(NOISE_BLOCK, n_steps) steps at a time; the
    bytes cover that noise block with its norms, the noise group buffer,
    the record buffer with its flush temporaries (the last two share
    BATCH_BUFFER_BYTES) and the two buffers of up to np.getbufsize()
    floats NumPy's iterator may take for a flush's elementwise ops, the
    step's arrays, the kept series and the record times.  The capacity is
    at least one record point, which alone can exceed the budget at large
    B n, and at most the record points of one block.
    """
    block = min(NOISE_BLOCK, n_steps)
    group = max(1, min(count, NOISE_GROUP_BYTES // (16 * block)))
    per_point = count * (48 * n + 48)   # amplitudes, <H>, norm^2, temporaries
    capacity = max(1, min((BATCH_BUFFER_BYTES - NOISE_GROUP_BYTES) // per_point,
                          block // stride + 2))
    noise = count * block * (16 + 8)    # dxi and the norms of its steps
    iterator = 16 * min(np.getbufsize(), capacity * count * 2 * n)
    step = count * (56 * n + 16)   # the carried c and <H>, hd, f, f * c
    series = (24 * kept + 8) * record_count(n_steps, stride)   # and times
    return group, capacity, (noise + 16 * group * block + capacity * per_point
                             + iterator + step + series)


def _integrate_eigenbasis(kernel: _EigenKernel, c0, streams, n_steps: int,
                          stride: int, keep=()) -> _BatchSums:
    """Integrate one trajectory per noise stream from eigenbasis amplitudes c0.

    Row b draws its increments from streams[b] in blocks (fill_dxi_blocks,
    bit-identical to per-step sample_dxi), so a trajectory's values do not
    depend on which other streams share its batch.  At every step of
    record_steps(n_steps, stride) the rows' amplitudes, <H> and squared
    norm go into a record buffer; a flush reduces every buffered record
    point at once, when the buffer is full and at the end of each noise
    block.  The rows listed in keep also record <H>, Var H and the norm
    defect ||psi + dpsi|| - 1 of the step just taken, and their final state.
    Each row's final Var H is taken once, from its final amplitudes.
    """
    count, n = len(streams), len(c0)
    n_rec = record_count(n_steps, stride)
    keep = np.asarray(keep, dtype=np.intp)
    proj = np.empty((n_rec, n, n), dtype=np.complex128)
    e_sum, v_sum, drift_max = (np.empty(n_rec) for _ in range(3))
    energy, variance, defect = (np.empty((len(keep), n_rec)) for _ in range(3))
    block_len = min(NOISE_BLOCK, n_steps)
    group, capacity, _ = batch_buffers(count, n, n_steps, stride, len(keep))
    scratch = np.empty((group, block_len, 2))
    held_c = np.empty((capacity, count, n), dtype=np.complex128)
    held_e, held_nrm_sq = np.empty((2, capacity, count))
    dxi = np.empty((block_len, count), dtype=np.complex128)
    norms = np.empty(dxi.shape)
    held = done = 0          # record points buffered, and reduced before them

    def hold(c, e, nrm_sq):
        nonlocal held
        held_c[held], held_e[held], held_nrm_sq[held] = c, e, nrm_sq
        held += 1
        if held == capacity:
            flush()

    def flush():
        nonlocal held, done
        if not held:
            return
        pos = slice(done, done + held)
        for i in range(held):     # a sum over rows: BLAS, one call per point
            np.matmul(held_c[i].T, held_c[i].conj(), out=proj[done + i])
        e = held_e[:held]
        v = kernel.variance(held_c[:held], e)
        d = np.sqrt(held_nrm_sq[:held]) - 1.0
        e_sum[pos], v_sum[pos] = e.sum(axis=1), v.sum(axis=1)
        drift_max[pos] = np.abs(d).max(axis=1)
        energy[:, pos], variance[:, pos], defect[:, pos] = \
            e[:, keep].T, v[:, keep].T, d[:, keep].T
        done += held
        held = 0

    rows = slice(None) if count > 1 else 0   # a batch of one is a rank-1 row
    c = np.tile(c0, (count, 1))[rows]
    e = kernel.mean_energy(c)
    hold(c, e, 1.0)
    for start in range(0, n_steps, NOISE_BLOCK):
        block = min(NOISE_BLOCK, n_steps - start)
        fill_dxi_blocks(kernel.dt, streams, dxi[:block], scratch)
        coeff = kernel.coefficients(dxi[:block, rows])
        # a failed row runs on as nan/inf to the end of the block, where its
        # first bad step is reported
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i in range(block):
                c, e, norms[i, rows] = kernel.step(c, e, coeff[i])
                step = start + i + 1
                if step % stride == 0 or step == n_steps:
                    hold(c, e, norms[i])
        bad = ~((norms[:block] >= _MIN_NORM_SQ) & (norms[:block] < np.inf))
        if bad.any():
            i, b = divmod(int(np.argmax(bad)), count)
            raise DegenerateStateError(
                f"trajectory {streams[b].stream_index} failed at step "
                f"{start + i + 1}: norm^2 = {float(norms[i, b])!r}")
        flush()
    c, e = c.reshape(count, n), np.reshape(e, count)
    times = kernel.dt * record_steps(n_steps, stride).astype(float)
    records = [TrajectoryRecord(times=times, energy_mean=energy[r],
                                energy_variance=variance[r],
                                norm_drift=defect[r],
                                final_state=kernel.vecs @ c[b])
               for r, b in enumerate(keep)]
    return _BatchSums(
        projector_sum=proj, energy_sum=e_sum, variance_sum=v_sum,
        max_norm_drift=drift_max,
        winners=np.bincount(np.argmax(np.abs(c) ** 2, axis=1), minlength=n),
        terminal_variance=kernel.variance(c[None], e[None])[0], records=records)


def norm_defect_samples(psi, h, tau0: float, dt: float, n: int,
                        stream: NoiseStream) -> np.ndarray:
    """Pre-renormalization ||psi + dpsi||^2 - 1 for n independent noise draws
    from the same initial state.

    psi's eigenbasis row, with its scalar <H>, steps once against the (n, 1)
    coefficients of the draws, which broadcast it over them.  The sample
    mean estimates the O(dt^2) discretization defect; individual draws
    fluctuate at O(dt) around it with zero mean.
    """
    psi = qcore.as_state(psi)
    tau0 = qcore.positive("tau0", tau0, allow_zero=True)
    dxi = sample_dxi_block(dt, n, stream)
    kernel = _EigenKernel(qcore.as_operator(h), dt, tau0)
    c0 = kernel.vecs.conj().T @ psi
    coeff = kernel.coefficients(dxi[None, :])[0]
    return kernel.step(c0, kernel.mean_energy(c0), coeff)[2] - 1.0


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
            "times": self.times.tolist(),
            "energy_mean": self.energy_mean.tolist(),
            "energy_variance": self.energy_variance.tolist(),
            "norm_drift": self.norm_drift.tolist(),
            "final_state": qcore.state_to_json(self.final_state),
        })


def record_count(n_steps: int, stride: int) -> int:
    """Number of record points: every stride-th step plus the last."""
    return -(-n_steps // stride) + 1


def record_steps(n_steps: int, stride: int) -> np.ndarray:
    """Step indices stored in a record: every stride-th step plus the last
    (a stride beyond n_steps, which records the same, is cut to fit int64)."""
    return np.minimum(np.arange(record_count(n_steps, stride))
                      * min(stride, n_steps), n_steps)
