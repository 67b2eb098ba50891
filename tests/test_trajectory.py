import itertools
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsdsim import (DegenerateStateError, InvalidParameterError, NoiseStream,
                    ShapeError, SimulationConfig, align_global_phase,
                    gauge_transform, lindblad_from_hamiltonian, lindblad_rhs,
                    norm_defect_samples, normalize, psd_master_rhs, psd_step,
                    qsd_step, run_ensemble, run_trajectory, sample_dxi_block)
from qsdsim import qcore, trajectory
from qsdsim.noise import fill_dxi_blocks
from qsdsim.trajectory import _EigenKernel, _integrate_eigenbasis
from conftest import (force_noise_path, forks, plan_for,
                      random_hermitian, random_state)


class TestLindbladFromHamiltonian:
    def test_zero_hamiltonian(self):
        lop = lindblad_from_hamiltonian(np.zeros((3, 3)), tau0=4.0)
        assert np.allclose(lop, 0.5j * np.eye(3), atol=1e-15)

    def test_rejects_nonpositive_tau0(self):
        with pytest.raises(InvalidParameterError):
            lindblad_from_hamiltonian(np.eye(2), tau0=0.0)
        with pytest.raises(InvalidParameterError):
            lindblad_from_hamiltonian(np.eye(2), tau0=-1.0)

    def test_tau0_scaling_structure(self, rng):
        h = random_hermitian(rng, 3)
        eye = np.eye(3)
        l1 = lindblad_from_hamiltonian(h, tau0=1.0)
        l4 = lindblad_from_hamiltonian(h, tau0=4.0)
        # quadrupling tau0 doubles the hamiltonian part, halves the identity part
        h_part = l1 - 1j * eye
        assert np.allclose(l4, 2.0 * h_part + 0.5j * eye, atol=1e-14)

    def test_master_rhs_identity(self, rng):
        # substituting L into the general dissipator reproduces the
        # hamiltonian-driven generator entrywise
        for _ in range(30):
            h = random_hermitian(rng, 3)
            psi = random_state(rng, 3)
            rho = np.outer(psi, psi.conj())
            tau0 = float(rng.uniform(0.1, 3.0))
            lop = lindblad_from_hamiltonian(h, tau0)
            lhs = lindblad_rhs(rho, lop)
            rhs = psd_master_rhs(rho, h, tau0)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestQsdStep:
    def test_scalar_lindblad_is_noop(self, rng):
        psi = random_state(rng, 3)
        out = qsd_step(psi, (1.3 - 0.4j) * np.eye(3), 0.02 + 0.01j, 1e-3)
        assert np.max(np.abs(out - psi)) < 1e-14

    def test_eigenstate_of_selfadjoint_lindblad_is_fixed(self):
        lop = np.diag([0.0, 1.0, 2.0]).astype(complex)
        psi = np.array([0, 0, 1], dtype=complex)
        out = qsd_step(psi, lop, 0.05 + 0.02j, 1e-3)
        assert np.max(np.abs(out - psi)) < 1e-14

    def test_hand_evaluated_step(self):
        # diagonal L lets the step be evaluated per component by scalar
        # arithmetic: dc_k = c_k [(<L> L_k - L_k^2/2 - <L>^2/2) dt
        #                          + (L_k - <L>) dxi]
        dxi, dt = 0.01 + 0.02j, 1e-3
        psi = np.array([1, 1]) / np.sqrt(2)
        mean_l = 0.5
        drift = [mean_l * 0.0 - 0.0 - 0.5 * mean_l ** 2,
                 mean_l * 1.0 - 0.5 - 0.5 * mean_l ** 2]
        expected = normalize(np.array([
            psi[0] * (1 + drift[0] * dt + (0.0 - mean_l) * dxi),
            psi[1] * (1 + drift[1] * dt + (1.0 - mean_l) * dxi),
        ]))
        out = qsd_step(psi, np.diag([0.0, 1.0]).astype(complex), dxi, dt)
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_shape_and_dt_errors(self, rng):
        psi = random_state(rng, 2)
        with pytest.raises(ShapeError):
            qsd_step(psi, np.eye(3), 0.01, 1e-3)
        with pytest.raises(InvalidParameterError):
            qsd_step(psi, np.eye(2), 0.01, 0.0)


class TestPsdStep:
    def test_eigenstate_unchanged(self):
        h = np.diag([1.0, 2.0])
        psi = np.array([1, 0], dtype=complex)
        out = psd_step(psi, h, 0.5, 0.03 + 0.01j, 1e-3)
        assert np.max(np.abs(out - psi)) < 1e-15

    def test_scalar_hamiltonian_unchanged(self, rng):
        psi = random_state(rng, 3)
        out = psd_step(psi, 4.2 * np.eye(3), 0.5, 0.03 + 0.01j, 1e-3)
        assert np.max(np.abs(out - psi)) < 1e-14

    def test_matches_general_step_via_lindblad(self, rng):
        # cross-implementation oracle: 200 random draws, n <= 4
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            h = random_hermitian(rng, n)
            psi = random_state(rng, n)
            tau0 = float(rng.uniform(0.05, 2.0))
            dt = float(rng.uniform(1e-5, 1e-3))
            dxi = complex(rng.standard_normal() + 1j * rng.standard_normal()) \
                * np.sqrt(dt / 2)
            direct = psd_step(psi, h, tau0, dxi, dt)
            via_l = qsd_step(psi, lindblad_from_hamiltonian(h, tau0), dxi, dt)
            worst = max(worst, float(np.max(np.abs(
                align_global_phase(direct, via_l) - via_l))))
        assert worst < 1e-12

    def test_tau0_zero_is_phase_free_schrodinger_euler(self, rng):
        h = random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        out = psd_step(psi, h, 0.0, 0.05 + 0.01j, 1e-4)
        hd_psi = h @ psi - np.vdot(psi, h @ psi).real * psi
        expected = normalize(psi - 1e-4 * 1j * hd_psi)
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_negative_tau0_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            psd_step(random_state(rng, 2), np.eye(2), -0.1, 0.01, 1e-3)
        for tau0 in (-0.1, float("nan")):
            with pytest.raises(InvalidParameterError):
                norm_defect_samples(random_state(rng, 2), np.eye(2), tau0,
                                    1e-3, 4, NoiseStream(0))


def assert_rows_replay(config, rows):
    """Ensemble rows `rows` equal run_trajectory from the config's initial
    state on their streams, bit for bit."""
    summary = run_ensemble(config, retain=rows)
    for k in rows:
        rec = run_trajectory(config, k)
        row = summary.trajectories[k]
        for name in ("energy_mean", "energy_variance", "norm_drift",
                     "final_state"):
            assert np.array_equal(getattr(rec, name), getattr(row, name))


class TestEigenKernel:
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_matches_dense_psd_step(self, n):
        # the eigenbasis kernel, rotated back by V, against the dense step
        # on one shared noise sequence
        rng = np.random.default_rng(100 + n)
        h = random_hermitian(rng, n)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        psi = random_state(rng, n)
        tau0, dt = 0.4, 1e-3
        dxi = sample_dxi_block(dt, 200, NoiseStream(31, n))
        kernel = _EigenKernel(h, dt, tau0)
        vecs = kernel.vecs
        coeff = kernel.coefficients(dxi[:, None].copy())   # in place
        c = (vecs.conj().T @ psi)[None, :]
        e = kernel.mean_energy(c)
        deviations = []
        for k in range(200):
            c, e, _ = kernel.step(c, e, coeff[k])
            psi = psd_step(psi, h, tau0, dxi[k], dt)
            deviations.append(float(np.max(np.abs(vecs @ c[0] - psi))))
        assert deviations[0] < 1e-12
        assert deviations[-1] < 1e-9

    def test_run_trajectory_replays_ensemble_rows(self):
        # trajectory k of an ensemble and stream k of run_trajectory run the
        # same arithmetic, bit for bit
        rng = np.random.default_rng(17)
        h = random_hermitian(rng, 5)
        psi0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert_rows_replay(SimulationConfig(
            hamiltonian=h, initial_state=psi0, tau0=0.4, dt=2e-3,
            t_final=3.0, n_trajectories=7, master_seed=13, record_stride=25),
            rows=range(3))

    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_replay_at_full_chunk_size(self, n):
        # M = 515 is one full 512-row batch plus a partial one; rows at both
        # ends of the full batch and the last row replay as batches of one
        rng = np.random.default_rng(200 + n)
        h = random_hermitian(rng, n)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        psi0 = random_state(rng, n)
        assert_rows_replay(SimulationConfig(
            hamiltonian=h, initial_state=psi0, tau0=0.4, dt=5e-3,
            t_final=0.25, n_trajectories=515, master_seed=5,
            record_stride=10), rows=(0, 511, 514))

    def test_trailing_batch_of_one_replays(self):
        # M = 513: row 512 is a batch of one inside the ensemble, stepped
        # as a rank-1 row like run_trajectory, next to a full batch
        rng = np.random.default_rng(513)
        h = random_hermitian(rng, 4)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        config = SimulationConfig(
            hamiltonian=h, initial_state=random_state(rng, 4), tau0=0.4,
            dt=5e-3, t_final=0.25, n_trajectories=513, master_seed=8,
            record_stride=10)
        assert_rows_replay(config, rows=(511, 512))
        # the terminal Var H of the batch of one is its last recorded Var H
        summary = run_ensemble(config, retain=[512])
        assert summary.terminal_variances[512] \
            == summary.trajectories[512].energy_variance[-1]

    def test_failure_names_trajectory_and_step(self):
        # the overflowing step is reported with its trajectory index and step
        config = one_trajectory(np.diag([1e160, -1e160]),
                                np.array([1.0, 1.0]) / np.sqrt(2),
                                tau0=1.0, dt=0.5, t_final=5.0, master_seed=1)
        with np.errstate(all="ignore"), \
                pytest.warns(RuntimeWarning, match="under-resolves"), \
                pytest.raises(DegenerateStateError,
                              match=r"trajectory 2 failed at step 1: "
                                    r"norm\^2 = nan$"):
            run_trajectory(config, 2)


_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def kernel_step_inputs(draw):
    """A random hermitian H (n = 2..16, spectral radius <= 1), a state, dt,
    tau0 (0 included: no diffusion) and dxi; the step factor stays away
    from zero, so one step is well conditioned."""
    n = draw(st.integers(2, 16))
    a = draw(hnp.arrays(np.float64, (2, n, n), elements=_unit))
    z = a[0] + 1j * a[1]
    h = 0.5 * (z + z.conj().T)
    h /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(h))))
    parts = draw(hnp.arrays(np.float64, (2, n), elements=_unit))
    psi = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(psi) > 0.1)
    dt = draw(st.floats(1e-5, 1e-2))
    tau0 = draw(st.just(0.0) | st.floats(0.01, 2.0))
    re, im = draw(st.tuples(_unit, _unit))
    dxi = 3.0 * np.sqrt(dt / 2) * complex(re, im)
    return h, psi / np.linalg.norm(psi), dt, tau0, dxi


@st.composite
def gauge_inputs(draw):
    """A random L (n = 2..6, entries in the unit square), a unit phase u,
    a state, dt and a noise seed."""
    n = draw(st.integers(2, 6))
    a = draw(hnp.arrays(np.float64, (2, n, n), elements=_unit))
    parts = draw(hnp.arrays(np.float64, (2, n), elements=_unit))
    psi = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(psi) > 0.1)
    u = np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi)))
    return (a[0] + 1j * a[1], u, psi / np.linalg.norm(psi),
            draw(st.floats(1e-4, 1e-2)), draw(st.integers(0, 2 ** 32 - 1)))


class TestEigenKernelProperties:
    # one kernel step against the dense step it replaces
    @settings(max_examples=150, deadline=None)
    @given(kernel_step_inputs())
    def test_one_step(self, inputs):
        h, psi, dt, tau0, dxi = inputs
        kernel = _EigenKernel(h, dt, tau0)
        coeff = kernel.coefficients(np.array([[dxi]]))
        c = (kernel.vecs.conj().T @ psi)[None, :]
        c_next, e_next, _ = kernel.step(c, kernel.mean_energy(c), coeff[0])
        dense = psd_step(psi, h, tau0, dxi, dt)
        assert np.max(np.abs(kernel.vecs @ c_next[0] - dense)) < 1e-12
        assert abs(np.linalg.norm(c_next[0]) - 1.0) < 1e-14
        assert np.array_equal(e_next, kernel.mean_energy(c_next))
        # <H> and Var H of the row against the dense state's
        h_dense = h @ dense
        mean = np.vdot(dense, h_dense).real
        assert abs(e_next[0] - mean) < 1e-12
        assert abs(kernel.variance(c_next, e_next)[0]
                   - (np.vdot(h_dense, h_dense).real - mean ** 2)) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(kernel_step_inputs(), st.integers(0, 15))
    def test_eigenstates_stay_fixed(self, inputs, k):
        h, _, dt, tau0, dxi = inputs
        kernel = _EigenKernel(h, dt, tau0)
        c = np.zeros((1, len(h)), dtype=np.complex128)
        c[0, k % len(h)] = 1.0
        coeff = kernel.coefficients(np.array([[dxi]]))
        c_next, e_next, _ = kernel.step(c, kernel.mean_energy(c), coeff[0])
        assert np.array_equal(c_next, c)
        assert e_next[0] == kernel.energies[k % len(h)]


def reference_step(kernel, c, e, coeff):
    """The kernel step in its direct form, on rows c (B, n) with
    coefficients (B, 1): hd = E - <H> with a trailing axis, f += 1, an
    in-place product with c and np.einsum."""
    hd = kernel.energies - e[:, None]
    f = coeff + kernel._curvature * hd
    f *= hd
    f += 1.0
    f *= c
    w = f.view(np.float64)
    nrm_sq = np.empty(len(c))
    np.einsum("bi,bi->b", w, w, out=nrm_sq)
    w *= np.reciprocal(np.sqrt(nrm_sq))[:, None]
    return f, np.einsum("bi,bi,i->b", w, w, kernel._pairs), nrm_sq


def batch_step_case(n, rows, seed, dt, tau0, k):
    """A kernel of a random H (n x n, spectral radius <= 1), rows random
    rows with eigenstate k % n in row 0, their <H> and the raw dxi of
    three steps (3, rows)."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    h /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(h))))
    kernel = _EigenKernel(h, dt, tau0)
    c = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    c /= np.linalg.norm(c, axis=1)[:, None]
    c[0] = 0.0
    c[0, k % n] = 1.0
    dxi = np.sqrt(dt / 2) * (rng.standard_normal((3, rows))
                             + 1j * rng.standard_normal((3, rows)))
    return kernel, c, kernel.mean_energy(c), dxi


def block_steps(kernel, c, e, coeff):
    """kernel.steps of rows c, or a rank-1 row, through the coefficient
    block coeff from fresh buffers, holding every step: a copy of each
    step's (c, e, norm^2), and the norms the block wrote."""
    held = []
    norms = np.empty((len(coeff), len(c) if c.ndim == 2 else 1))
    kernel.steps(c, e, coeff, norms, kernel.buffers(c.shape),
                 lambda *step: held.append(tuple(map(np.copy, step))),
                 range(len(coeff)))
    return held, norms


# physical coefficients: dt*E_max below 0.5, tau0 = 0 included; 2000
# rows is the width of the README compare run's batch
batch_step_args = dict(
    n=st.integers(1, 64), rows=st.sampled_from([3, 512, 2000]),
    seed=st.integers(0, 2 ** 32 - 1), dt=st.floats(1e-5, 0.49),
    tau0=st.just(0.0) | st.floats(0.01, 2.0), k=st.integers(0, 63))


class TestRankOneStep:
    # a batch of one steps as a rank-1 row through the same kernel, with
    # the bits of its row in any batch

    @settings(max_examples=60, deadline=None)
    @given(**batch_step_args)
    # n = 1: an in-place product with c would run as a reduction there
    @example(n=1, rows=512, seed=3, dt=0.3, tau0=0.4, k=0)
    @example(n=1, rows=3, seed=7, dt=0.3, tau0=0.0, k=0)
    @example(n=2, rows=2000, seed=5, dt=2.5e-3, tau0=0.4, k=1)
    def test_row_alone_is_its_batch_row(self, n, rows, seed, dt, tau0, k):
        kernel, c, e, dxi = batch_step_case(n, rows, seed, dt, tau0, k)
        batch, norms = block_steps(kernel, c, e,
                                   kernel.coefficients(dxi.copy()))
        for b in range(len(c)):
            assert kernel.mean_energy(c[b]) == e[b]
            alone, alone_norms = block_steps(
                kernel, c[b], e[b], kernel.coefficients(dxi[:, b].copy()))
            for (c_next, e_next, nrm_sq), step in zip(alone, batch,
                                                      strict=True):
                assert np.array_equal(c_next, step[0][b])
                assert e_next == step[1][b] and nrm_sq == step[2][b]
            assert np.array_equal(alone_norms[:, 0], norms[:, b])

    @settings(max_examples=60, deadline=None)
    @given(**batch_step_args)
    @example(n=2, rows=2000, seed=5, dt=2.5e-3, tau0=0.4, k=1)
    def test_step_is_the_reference_formula(self, n, rows, seed, dt, tau0, k):
        kernel, c, e, dxi = batch_step_case(n, rows, seed, dt, tau0, k)
        coeff = kernel.coefficients(dxi.copy())
        held, norms = block_steps(kernel, c, e, coeff)
        for t, step in enumerate(held):
            c, e, nrm_sq = reference_step(kernel, c, e, coeff[t])
            for got, expected in zip(step, (c, e, nrm_sq), strict=True):
                assert np.array_equal(got, expected)
            assert np.array_equal(norms[t], nrm_sq)

    @pytest.mark.parametrize("n, tau0, poisoned", [
        (1, 0.4, False), (8, 0.4, False), (8, 0.0, False), (8, 0.4, True)],
        ids=["n1", "n8", "n8-tau0-zero", "n8-overflow"])
    def test_lone_row_offsets_stay_real(self, n, tau0, poisoned):
        # a rank-1 row's hd and curvature term are complex buffers whose
        # real views the step writes: their imaginary parts stay +0.0, the
        # value NumPy casts a real operand to, so the complex ops give the
        # bits of a real hd and curvature term, also once the row overflows
        # at step 300 and runs on as nan
        rng = np.random.default_rng(n)
        h = random_hermitian(rng, n)
        h /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(h))))
        kernel = _EigenKernel(h, 2e-3, tau0)
        c0 = kernel.vecs.conj().T @ random_state(rng, n)
        stream = _PoisonedStream(3, 0, 300) if poisoned else NoiseStream(3, 0)
        coeff = kernel.coefficients(sample_dxi_block(kernel.dt, 600, stream))
        work = kernel.buffers(c0.shape)
        norms = np.empty((600, 1))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            kernel.steps(c0, kernel.mean_energy(c0), coeff, norms, work)
        assert np.isfinite(norms).all() != poisoned
        for view, buffer in work[2:4]:
            assert buffer.dtype == np.complex128
            assert np.shares_memory(view, buffer) and view.dtype == np.float64
            assert not np.any(buffer.imag)
            assert not np.any(np.signbit(buffer.imag))

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_lone_row_across_blocks_is_its_batch_row(self, n, stride):
        # 2500 steps in noise blocks of 1100; 2500 is no multiple of 7.
        # Each row of a batch of 3, a chunk of its own, reduces to the
        # bits of the row run alone (no projectors at n = 64: 2501 points
        # of them would take 164 MB a row)
        kernel, c0 = batch_inputs(n, 3, seed=n)

        def run(rows, chunk):
            plan = trajectory.batch_plan(
                len(rows), n, 2500, stride, len(rows), chunk, False,
                trajectory.record_count(2500, stride) if n < 64 else 0)
            return _integrate_eigenbasis(kernel, c0, 5, rows,
                                         range(len(rows)),
                                         replace(plan, block=1100))

        batch = run(range(3), 1)
        for b in range(3):
            assert_sums_equal(batch[b:b + 1], run([b], 1))

    @pytest.mark.parametrize("zero", [False, True], ids=["overflow", "zero"])
    def test_lone_row_fails_as_its_batch_row(self, monkeypatch, zero):
        # noise of 1e300 at step 1500 overflows norm^2 to inf, and the row
        # renormalized by 0 reaches norm^2 = 0 at the next step; a zero c0
        # has norm^2 = 0 at step 1.  The rank-1 row, which takes 1 /
        # math.sqrt of nonzero norms only, raises its batch row's error
        kernel, c0 = batch_inputs(3, 2, seed=9)
        if zero:
            c0 = np.zeros_like(c0)

        monkeypatch.setattr(trajectory, "NoiseStream", lambda seed, j: (
            _PoisonedStream(seed, j, 0 if zero or j else 1500)))

        def error(rows):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateStateError) as info:
                    _integrate_eigenbasis(
                        kernel, c0, 3, rows, [0],
                        replace(plan_for(len(rows), 3, 2100, 1, 1),
                                block=614))
            return str(info.value)

        expected = ("trajectory 0 failed at step 1: norm^2 = 0.0" if zero
                    else "trajectory 0 failed at step 1500: norm^2 = inf")
        assert error([0, 1]) == error([0]) == expected

    @pytest.mark.parametrize("rows", [1, 5])
    def test_public_einsum_gives_the_same_bits(self, monkeypatch, rows):
        # the private C einsum is np.einsum without its Python wrapper
        kernel, c0 = batch_inputs(4, rows, seed=4)

        def run():
            return _integrate_eigenbasis(kernel, c0, 2, range(rows), [0],
                                         plan_for(rows, 4, 1100, 7, 1))

        private = run()
        monkeypatch.setattr(trajectory, "_einsum", np.einsum)
        assert_sums_equal(run(), private)


class _PoisonedStream(NoiseStream):
    """A noise stream whose increment at one step is 1e300, so a row that
    is not an eigenstate overflows there."""

    def __init__(self, master_seed, stream_index, step):
        super().__init__(master_seed, stream_index)
        self.step, self.drawn = step, 0

    def standard_normal(self, size=None, out=None):
        g = super().standard_normal(size, out=out)
        first, self.drawn = self.drawn, self.drawn + len(g)
        if first < self.step <= self.drawn:
            g[self.step - first - 1] = 1e300
        return g


def assert_sums_equal(a, b):
    """Two lists of _BatchSums hold the same bits, retained series included."""
    for p, q in zip(a, b, strict=True):
        for name in ("projector_sum", "energy_sum", "variance_sum",
                     "max_norm_drift", "winners", "terminal_variance"):
            assert np.array_equal(getattr(p, name), getattr(q, name)), name
        for x, y in zip(p.records, q.records, strict=True):
            for name in ("times", "energy_mean", "energy_variance",
                         "norm_drift", "final_state"):
                assert np.array_equal(getattr(x, name), getattr(y, name)), name


def batch_inputs(n, count, seed):
    """An eigenbasis kernel of a random H (n x n) and a random c0."""
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, n)
    h /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(h))))
    kernel = _EigenKernel(h, 2e-3, 0.4)
    return kernel, kernel.vecs.conj().T @ random_state(rng, n)


class TestRecordBuffer:
    # the flush reduces buffered record points with the bits of reducing
    # each point on the spot

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 64]),
           st.sampled_from([1, 3, 512]), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1), st.floats(1e-3, 1e3))
    @pytest.mark.filterwarnings("ignore:dt under-resolves:RuntimeWarning")
    def test_variance_is_the_einsum(self, n, rows, points, seed, scale):
        rng = np.random.default_rng(seed)
        kernel = _EigenKernel(np.diag(scale * rng.standard_normal(n)), 1e-3,
                              0.4)
        c = rng.standard_normal((points, rows, n)) \
            + 1j * rng.standard_normal((points, rows, n))
        e = scale * rng.standard_normal((points, rows))
        v = kernel.variance(c, e)
        for k in range(points):
            w = c[k].view(np.float64)
            hd = kernel._pairs - e[k][:, None]
            assert np.array_equal(v[k],
                                  np.einsum("bi,bi,bi,bi->b", w, w, hd, hd))

    def test_capacity_one_gives_the_same_sums(self, monkeypatch):
        # stride 1, so every step is a record point; 1100 steps are a
        # multiple of neither the noise block (614 steps; a row helper
        # steps half the rows) nor the buffer capacity, and 40 rows are
        # enough for the order of a sum over rows to show
        kernel, c0 = batch_inputs(4, 40, seed=8)
        n_steps, keep = 1100, [1, 39]
        pids = forks(monkeypatch)

        def run():
            plan = replace(plan_for(40, 4, n_steps, 1, len(keep)), block=614,
                           helper=True)
            return plan.capacity, _integrate_eigenbasis(kernel, c0, 6,
                                                        range(40), keep, plan)

        capacity, buffered = run()
        assert 1 < capacity < 614 and n_steps % capacity and 614 % capacity
        monkeypatch.setattr(trajectory, "BATCH_BUFFER_BYTES", 0)
        capacity, alone = run()
        assert capacity == 1
        assert_sums_equal(buffered, alone)
        assert len(pids) == 2

    @pytest.mark.parametrize("n", [1, 2, 4, 64])
    @pytest.mark.parametrize("one_point", [False, True],
                             ids=["full-flushes", "one-point-flushes"])
    def test_projector_is_each_point_alone(self, monkeypatch, n, one_point):
        # every record point's projector sum, in each chunk of 8 rows (the
        # last one 4), has the bits of c.T @ c.conj() of that point's rows
        # taken alone; stride 1 over 1100 steps fills the record buffer
        # several times in each noise block, or flushes every point alone
        kernel, c0 = batch_inputs(n, 20, seed=n)
        if one_point:
            monkeypatch.setattr(trajectory, "BATCH_BUFFER_BYTES", 0)
        plan = trajectory.batch_plan(20, n, 1100, 1, 0, 8, False, 1101)
        assert plan.capacity == 1 if one_point \
            else 1 < plan.capacity < plan.block
        states = [np.tile(c0, (20, 1))]
        steps = kernel.steps

        def recording(c, e, coeff, norms, work, hold, due):
            def held(c, e, nrm_sq):
                states.append(c.copy())
                hold(c, e, nrm_sq)
            return steps(c, e, coeff, norms, work, held, due)

        monkeypatch.setattr(kernel, "steps", recording)
        sums = _integrate_eigenbasis(kernel, c0, 9, range(20), (), plan)
        assert len(states) == 1101
        for j, part in enumerate(sums):
            for t, c in enumerate(states):
                rows = c[8 * j:8 * j + 8]
                assert np.array_equal(part.projector_sum[t],
                                      rows.T @ rows.conj())

    @pytest.mark.parametrize("n_steps, stride, block, capacity", [
        (10, 1, 10, 10), (10, 1, 10, 6), (10, 3, 4, 8), (10, 3, 4, 1),
    ], ids=["last-alone", "last-shares", "ragged-shares", "ragged-alone"])
    @pytest.mark.parametrize("helper", [False, True], ids=["alone", "split"])
    def test_trailing_projectors_are_the_every_point_sums(
            self, n_steps, stride, block, capacity, helper):
        # a plan that sums the projectors of the last P record points only
        # gives each chunk (2 rows of 5, the last one) the every-point
        # sums' last P and every other reduction's bits, P = 0 (a lone
        # trajectory's), 1 (ensemble's), 2 (across a flush) and all: the
        # last point alone in a flush after 10 buffered points, or sharing
        # it with 5; a ragged last step sharing the flush of step 9, or
        # every point alone; blocks of 10 or 4 steps
        kernel, c0 = batch_inputs(3, 5, seed=4)
        base = replace(plan_for(5, 3, n_steps, stride, 2, 2), block=block,
                       capacity=capacity, helper=helper)
        n_rec = trajectory.record_count(n_steps, stride)
        assert base.projectors == n_rec

        def run(projectors):
            return _integrate_eigenbasis(kernel, c0, 6, range(5), [0, 4], replace(
                base, projectors=projectors))

        every = run(n_rec)
        for projectors in (0, 1, 2):
            sums = run(projectors)
            assert all(part.projector_sum.shape == (projectors, 3, 3)
                       for part in sums)
            assert_sums_equal(sums, [replace(
                part, projector_sum=part.projector_sum[n_rec - projectors:])
                for part in every])

    @pytest.mark.parametrize("n, rows, n_steps, stride, kept, projectors", [
        (4, 512, 100, 1, 0, None), (4, 512, 2000, 1, 0, None),
        (8, 1, 6000, 100, 1, None),  # a lone trajectory, as run_trajectory runs it
        (8, 1, 500, 1, 1, None),     # one row, a flush of 501 points
        (64, 128, 200, 5, 0, None),
        (2, 2000, 600, 1, 0, None),  # four chunks, a noise block of 262 steps
        (4, 512, 2000, 1, 0, 1),     # the final projector only, as ensemble
    ], ids=["100", "2000", "one-kept-row", "one-row-stride-1",
            "n64-128-rows", "n2-four-chunks", "final-only"])
    def test_buffer_estimate_covers_a_batch(self, monkeypatch, n, rows,
                                            n_steps, stride, kept, projectors):
        # what a batch allocates besides its reductions is what batch_plan
        # states for the process that reduces (all of it, less a row
        # helper's part), less its chunks' reductions, with one noise block
        # or more, cut to the bytes of 512 or 2000 rows, stepped in-process
        # or, where a spare CPU makes the batch split (2000 and
        # n2-four-chunks), half in a row helper; tracemalloc does not see
        # the shared record buffer, so its mmap is added to what it measures
        import mmap
        kernel, c0 = batch_inputs(n, rows, seed=2)
        shared, made = [], mmap.mmap
        monkeypatch.setattr(mmap, "mmap", lambda fd, size: (
            shared.append(size), made(fd, size))[1])
        for spare_cpu in (False, True):
            plan = plan_for(rows, n, n_steps, stride, kept, 512, spare_cpu,
                            projectors)
            estimate = (plan.bytes - plan.helper
                        - -(-rows // 512) * plan.reduction)
            shared.clear()
            tracemalloc.start()
            try:
                sums = _integrate_eigenbasis(kernel, c0, 1, range(rows),
                                             list(range(kept)), plan)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            reductions = sum(a.nbytes for part in sums for a in (
                part.projector_sum, part.energy_sum, part.variance_sum,
                part.max_norm_drift))
            assert len(shared) == bool(plan.helper)
            peak += sum(shared)
            assert 0.8 * estimate <= peak - reductions <= 1.25 * estimate

    @pytest.mark.parametrize("n, rows, n_steps, stride, block", [
        (64, 128, 1000, 50, 200), (4, 1024, 500, 1, 100),
        (8, 1, 12500, 1, 2500),     # a lone trajectory, as a rank-1 row
    ], ids=["n64-128-rows", "n4-1024-rows", "one-row"])
    def test_no_allocation_after_the_first_block(self, monkeypatch, n, rows,
                                                 n_steps, stride, block):
        # from the second noise block on, the step, the clean-block check
        # and every flush write into the batch's arena, so they allocate no
        # more than the two buffers of np.getbufsize() complex values
        # NumPy's iterator takes for one op (the batch step casts its real
        # hd and curvature term) and a step's Python objects; a flush that
        # made its own variance terms or conjugated chunk would allocate
        # 256 KiB apiece at 128 rows, n = 64
        kernel, c0 = batch_inputs(n, rows, seed=5)
        plan = replace(plan_for(rows, n, n_steps, stride, 1, 512), block=block)
        n_blocks, calls, peak = n_steps // block, itertools.count(), []
        steps = kernel.steps

        def traced(*args):
            k = next(calls)
            if k == 1:
                tracemalloc.reset_peak()
                peak.append(-tracemalloc.get_traced_memory()[0])
            elif k == n_blocks - 1:
                peak[0] += tracemalloc.get_traced_memory()[1]
            return steps(*args)

        monkeypatch.setattr(kernel, "steps", traced)
        tracemalloc.start()
        try:
            _integrate_eigenbasis(kernel, c0, 4, range(rows), [0], plan)
        finally:
            tracemalloc.stop()
        assert n_blocks >= 5 and plan.capacity < block // stride
        assert peak[0] <= 32 * np.getbufsize() + (16 << 10)

    def test_grouped_fill_is_sample_dxi_block(self):
        # 7 streams in groups of 3 (the last one partial), 3 streams (one
        # group) and a lone stream drawn straight into a 1-d block, 40 of
        # the 50 steps the buffer holds; each stream's second block
        # continues it
        dt = 0.03
        scratch = np.empty((3, 50, 2))
        for count in (7, 3, 1):
            streams = [NoiseStream(4, j) for j in range(count)]
            alone = [NoiseStream(4, j) for j in range(count)]
            out = np.empty((40, count) if count > 1 else 40,
                           dtype=np.complex128)
            for _ in range(2):
                fill_dxi_blocks(dt, streams, out, scratch)
                expected = [sample_dxi_block(dt, 40, s) for s in alone]
                assert np.array_equal(
                    out, np.stack(expected, axis=1).reshape(out.shape))

    @pytest.mark.parametrize("poisoned, expected", [
        ({2: 1500}, "trajectory 2 failed at step 1500:"),
        ({2: 1500, 4: 1100}, "trajectory 4 failed at step 1100:"),
        ({0: 7}, "trajectory 0 failed at step 7:"),
    ])
    def test_failure_inside_a_buffered_block(self, monkeypatch, poisoned,
                                             expected):
        # the failing row runs on as nan through flushes of the buffer; the
        # first bad step of its noise block of 614 steps is still the one
        # reported, whether the batch or its row helper steps the poisoned
        # rows (2 and 4 are in the helper's half)
        kernel, c0 = batch_inputs(3, 5, seed=9)
        pids = forks(monkeypatch)
        monkeypatch.setattr(trajectory, "NoiseStream", lambda seed, j: (
            _PoisonedStream(seed, j, poisoned.get(j, 0))))
        for helper in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateStateError, match=expected):
                    _integrate_eigenbasis(
                        kernel, c0, 3, range(5), [0, 2],
                        replace(plan_for(5, 3, 2100, 1, 2), block=614,
                                helper=helper))
        assert len(pids) == 1

    @pytest.mark.parametrize("n, rows, chunk", [(2, 1030, 512), (4, 7, 3)],
                             ids=["n2-1030-rows", "n4-7-rows"])
    def test_chunks_of_a_wide_batch_are_the_chunks_alone(self, n, rows,
                                                         chunk):
        # each chunk of a batch reduces to the bits of that chunk run as a
        # batch of its own: the last chunk is ragged (6 rows, or one row,
        # which alone steps as a rank-1 row), kept rows span the chunks,
        # and 1030 rows draw noise in shorter blocks than 512 rows do
        kernel, c0 = batch_inputs(n, rows, seed=5)
        keep = [0, chunk - 1, chunk, rows - 1]

        def run(lo, hi, chunk=None):
            kept = [k - lo for k in keep if lo <= k < hi]
            return _integrate_eigenbasis(
                kernel, c0, 7, range(lo, hi), kept,
                plan_for(hi - lo, n, 1100, 7, len(kept), chunk))

        alone = [run(lo, min(lo + chunk, rows))[0]
                 for lo in range(0, rows, chunk)]
        assert_sums_equal(run(0, rows, chunk), alone)

    @pytest.mark.parametrize("poisoned, lowest, expected", [
        ({4: 7, 1: 1500}, 0, "trajectory 1 failed at step 1500:"),
        ({6: 7, 4: 1500, 5: 1500}, 1, "trajectory 4 failed at step 1500:"),
    ], ids=["first-chunk-fails-later", "middle-chunk-fails-later"])
    def test_failure_names_the_lowest_failing_chunk(self, monkeypatch,
                                                    poisoned, lowest,
                                                    expected):
        # chunks of 3 rows fail in different noise blocks of 614 steps; the
        # batch runs its failed rows on as nan, without a warning, and
        # names what its lowest failing chunk names alone
        kernel, c0 = batch_inputs(3, 7, seed=9)
        pids = forks(monkeypatch)
        monkeypatch.setattr(trajectory, "NoiseStream", lambda seed, j: (
            _PoisonedStream(seed, j, poisoned.get(j, 0))))

        def run(lo, hi, chunk, helper):
            _integrate_eigenbasis(
                kernel, c0, 3, range(lo, hi), [0],
                replace(plan_for(hi - lo, 3, 2100, 1, 1, chunk), block=614,
                        helper=helper))

        for lo, hi, chunk in ((0, 7, 3), (3 * lowest, 3 * lowest + 3, None)):
            for helper in (False, True):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DegenerateStateError, match=expected):
                        run(lo, hi, chunk, helper)
        assert len(pids) == 2


class _DyingStream(NoiseStream):
    """A noise stream that, keyed in a process other than `owner` (a row
    helper), ends that process once it has drawn `steps` increments."""

    def __init__(self, master_seed, stream_index, steps, owner):
        super().__init__(master_seed, stream_index)
        self.steps, self.drawn, self.owner = steps, 0, owner

    def standard_normal(self, size=None, out=None):
        if os.getpid() != self.owner and self.drawn >= self.steps:
            os._exit(3)
        g = super().standard_normal(size, out=out)
        self.drawn += len(g)
        return g


HELPER_PEAK = """
import itertools
import os
import sys
import numpy as np
from qsdsim import trajectory

def dirty(pid):
    total = part = 0
    with open(f"/proc/{pid}/smaps") as fh:
        for line in fh:
            field = line.split()
            if field[0] == "Private_Dirty:":
                part = 1024 * int(field[1])
            elif field[0] == "VmFlags:" and "sh" not in field[1:]:
                total += part       # of a mapping that is not shared
    return total

pids, fork = [], os.fork

def forked():
    pids.append(fork())
    return pids[-1]

fill, calls, peaks = trajectory.fill_dxi_blocks, itertools.count(), []

def polled(*args):      # the parent's draws, from its second block on
    if next(calls) and pids and pids[0]:
        peaks.append(dirty(pids[0]))
    return fill(*args)

os.fork, trajectory.fill_dxi_blocks = forked, polled
n, rows, n_steps = map(int, sys.argv[1:])
kernel = trajectory._EigenKernel(np.diag(np.linspace(-1, 1, n)), 2e-3, 0.4)
c0 = np.full(n, 1 / np.sqrt(n), dtype=complex)
plan = trajectory.batch_plan(rows, n, n_steps, 1, 1, 512, True, n_steps + 1)
trajectory._integrate_eigenbasis(kernel, c0, 1, range(rows), [0], plan)
print(max(peaks) if len(peaks) >= 2 else 0, plan.helper)
"""


class TestNoiseHelper:
    # a batch with the work for it splits where a CPU is spare: a forked
    # row helper steps the upper half of its rows, drawing their noise,
    # and the parent reduces every row; the bits are those of stepping
    # every row in-process, and the helper is reaped on every path
    # (conftest.no_child_process_left).  A batch small enough for a test
    # is given a plan that splits, and each test checks that it forked

    @pytest.mark.parametrize("spare_cpu", [False, True])
    def test_a_helper_iff_the_batch_has_the_work(self, spare_cpu):
        for count, n, n_steps, splits in (
                (1, 8, 600000, False), (2, 64, 30000, True),
                (100, 2, 400, False), (24, 64, 1000, False),
                (128, 64, 1000, True), (2000, 2, 2000, True)):
            assert splits == (count > 1 and count * n_steps * (n + 11)
                              >= trajectory.SPLIT_WORK)
            plan = trajectory.batch_plan(count, n, n_steps, 1, 0, 512,
                                         spare_cpu, n_steps + 1)
            assert bool(plan.helper) == (spare_cpu and splits)
        # the noise block keeps its rule: a batch whose noise outgrows
        # NOISE_BLOCK_BYTES draws a full block at a time; 128 rows of 3000
        # steps (9.2 MB) draw two, with the bits of drawing one
        for count, n_steps, outgrows in ((1, 60000, False), (1, 600000, True),
                                         (128, 1000, False), (128, 3000, True),
                                         (2000, 2000, True)):
            assert outgrows == (24 * count * n_steps
                                > trajectory.NOISE_BLOCK_BYTES)
            plan = trajectory.batch_plan(count, 8, n_steps, 1, 0, 512,
                                         spare_cpu, n_steps + 1)
            assert (plan.block < n_steps) == outgrows
        plan = trajectory.batch_plan(128, 8, 3000, 1, 0, 512, spare_cpu, 3001)
        kernel, c0 = batch_inputs(8, 128, seed=8)
        sums = [_integrate_eigenbasis(
            kernel, c0, 9, range(128), [0, 127],
            replace(plan, block=block)) for block in (plan.block, 3000)]
        assert_sums_equal(*sums)
        for count, block in ((512, 614), (1030, 305), (2000, 157),
                             (2560, 122)):
            assert trajectory.batch_plan(count, 2, 10 ** 6, 1, 0, 512,
                                         spare_cpu, 10 ** 6 + 1).block == block

    def test_helper_draws_the_same_bits(self, monkeypatch):
        kernel, c0 = batch_inputs(3, 40, seed=3)
        pids = forks(monkeypatch)

        def run(helper):
            return _integrate_eigenbasis(
                kernel, c0, 5, range(40), [0, 39],
                replace(plan_for(40, 3, 2500, 3, 2, 16), block=614,
                        helper=helper))

        assert_sums_equal(run(True), run(False))
        assert len(pids) == 1

    @pytest.mark.parametrize("count, n, n_steps, stride, keep, chunk, block", [
        (2, 3, 1100, 1, [0, 1], 2, 614),        # two rank-1 halves
        (3, 1, 1000, 7, [0, 2], 3, 300),        # a rank-1 parent; ragged
        (41, 4, 1001, 10, [0, 19, 20, 40], 16, 400),
        (40, 2, 1200, 1, [19, 20], 16, None),   # one noise block
    ], ids=["two-rows", "three-rows-n1", "odd-ragged", "even-one-block"])
    def test_split_changes_no_bit(self, monkeypatch, count, n, n_steps,
                                  stride, keep, chunk, block):
        # the sums and records of a split batch, with kept rows on both
        # sides of the split (rows count // 2 on go to the helper) and
        # chunks across it, are those of stepping every row in-process
        kernel, c0 = batch_inputs(n, count, seed=count)
        pids = forks(monkeypatch)
        plan = plan_for(count, n, n_steps, stride, len(keep), chunk)
        plan = replace(plan, block=block or plan.block)

        def run(helper):
            return _integrate_eigenbasis(kernel, c0, 4, range(count), keep,
                                         replace(plan, helper=helper))

        assert_sums_equal(run(1), run(0))
        assert len(pids) == 1

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("helper", [False, True])
    def test_blocks_are_the_coefficients_of_each_stream(self, count, helper):
        # four blocks of 300 steps, the last one 100, drawn two streams at
        # a time into one noise block as a batch draws them; once
        # kernel.coefficients has run on it in place, column j of block k
        # holds kernel.coefficients of stream j's increments of those
        # steps, also for the streams of a row helper, the upper half of a
        # batch of 2 count rows
        kernel, _ = batch_inputs(3, count, seed=6)
        lo = count if helper else 0
        streams = [NoiseStream(8, j) for j in range(lo + count)][lo:]
        alone = [NoiseStream(8, j) for j in range(lo, lo + count)]
        scratch = np.empty((2, 300, 2))
        noise = np.empty((300, count) if count > 1 else 300,
                         dtype=np.complex128)
        for k in range(4):
            steps = min(300, 1000 - 300 * k)
            block = noise[:steps]
            fill_dxi_blocks(kernel.dt, streams, block, scratch)
            kernel.coefficients(block)
            expected = [kernel.coefficients(
                sample_dxi_block(kernel.dt, steps, s)) for s in alone]
            assert np.array_equal(
                block, np.stack(expected, axis=1).reshape(block.shape))

    def test_each_process_keys_the_streams_it_steps(self, monkeypatch):
        # a split batch of 41 rows keys in this process only the streams of
        # the 20 rows it steps (the helper keys the other 21 in its own);
        # where the fork fails, this process keys all 41
        monkeypatch.setattr(trajectory, "SPLIT_WORK", 1)
        force_noise_path(monkeypatch, True)
        keyed, init = [], NoiseStream.__init__

        def counted(self, master_seed, stream_index=0):
            keyed.append(stream_index)      # to this process's list
            init(self, master_seed, stream_index)

        monkeypatch.setattr(NoiseStream, "__init__", counted)
        pids = forks(monkeypatch)
        config = SimulationConfig(
            hamiltonian=np.diag([1.0, -0.5, 0.2]), initial_state=np.ones(3),
            tau0=0.4, dt=2e-3, t_final=0.2, n_trajectories=41, master_seed=5)
        split = run_ensemble(config)
        assert len(pids) == 1 and keyed == list(range(41 // 2))

        def fork():
            raise BlockingIOError("Resource temporarily unavailable")

        keyed.clear()
        monkeypatch.setattr(os, "fork", fork)
        alone = run_ensemble(config)
        assert keyed == list(range(41))
        assert np.array_equal(alone.terminal_variances,
                              split.terminal_variances)

    def test_a_failed_fork_draws_in_process(self, monkeypatch):
        kernel, c0 = batch_inputs(3, 40, seed=3)

        def run(helper):
            return _integrate_eigenbasis(
                kernel, c0, 5, range(40), [0, 39],
                replace(plan_for(40, 3, 2500, 3, 2, 16), block=614,
                        helper=helper))

        expected = run(False)
        tried = []

        def fork():
            tried.append(True)
            raise BlockingIOError("Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        assert_sums_equal(run(True), expected)
        assert tried == [True]

    @pytest.mark.parametrize("ensemble_helper", [False, True])
    @pytest.mark.parametrize("trajectory_helper", [False, True])
    def test_rows_replay_across_noise_paths(self, monkeypatch,
                                            ensemble_helper,
                                            trajectory_helper):
        # a budget of 600 steps of one row makes the 1500 steps three
        # noise blocks of a lone trajectory, and 18 of the ensemble's 7
        # rows; with any work worth a split, the ensemble forks a row
        # helper wherever a spare CPU is seen, and a lone row never does
        monkeypatch.setattr(trajectory, "NOISE_BLOCK_BYTES", 24 * 600)
        monkeypatch.setattr(trajectory, "SPLIT_WORK", 1)
        pids = forks(monkeypatch)
        rng = np.random.default_rng(17)
        config = SimulationConfig(
            hamiltonian=random_hermitian(rng, 5),
            initial_state=random_state(rng, 5), tau0=0.4, dt=2e-3,
            t_final=3.0, n_trajectories=7, master_seed=13, record_stride=25)
        force_noise_path(monkeypatch, ensemble_helper)
        summary = run_ensemble(config, retain=range(3))
        assert len(pids) == ensemble_helper
        force_noise_path(monkeypatch, trajectory_helper)
        for k in range(3):
            rec, row = run_trajectory(config, k), summary.trajectories[k]
            for name in ("energy_mean", "energy_variance", "norm_drift",
                         "final_state"):
                assert np.array_equal(getattr(rec, name), getattr(row, name))
        assert len(pids) == ensemble_helper

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                        reason="reads the helper's /proc/<pid>/smaps")
    @pytest.mark.parametrize("n, rows, n_steps", [
        (32, 256, 3000), (4, 512, 2000), (4, 1024, 6000), (2, 2000, 2000),
        (1, 8192, 2000)])
    def test_helper_estimate_covers_its_copied_pages(self, n, rows, n_steps):
        # in a fresh interpreter, as a CLI run starts, the row helper's
        # Private_Dirty (its own noise, group and step buffers, and the
        # pages it copies), read at each block the parent draws after its
        # first, stays within what batch_plan charges for the helper, also
        # where the batch's reductions at stride 1 (49 MB at n = 32) are
        # many times that; the shared record buffer, which batch_plan
        # counts without a helper too, is left out: a page of it is
        # private to the helper until the parent reads it; a run whose
        # helper did not fork reads 0
        src = str(Path(trajectory.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", HELPER_PEAK, str(n), str(rows), str(n_steps)],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src))
        peak, charged = map(int, proc.stdout.split())
        assert 0 < peak <= charged

    def test_a_dying_helper_raises(self, monkeypatch):
        # the helper ends as it draws its rows' third block of 614 steps;
        # the batch says so instead of waiting for rows that never come
        kernel, c0 = batch_inputs(3, 5, seed=9)
        owner = os.getpid()
        monkeypatch.setattr(trajectory, "NoiseStream", lambda seed, j: (
            _DyingStream(seed, j, 700, owner)))
        with pytest.raises(RuntimeError, match=r"row helper process \d+ "
                           r"ended \(exit status 3\) before it handed over "
                           r"its rows in noise block 3 of 4"):
            _integrate_eigenbasis(
                kernel, c0, 3, range(5), [0],
                replace(plan_for(5, 3, 2100, 1, 1), block=614, helper=True))

    def test_numerical_failure_reaps_the_helper(self, monkeypatch):
        # 300 rows of 2000 steps split; every row fails at step 1, and the
        # parent raises while the helper waits for its rows back
        config = SimulationConfig(
            hamiltonian=np.diag([1e160, -1e160]),
            initial_state=np.array([1.0, 1.0]) / np.sqrt(2), tau0=1.0,
            dt=0.5, t_final=1000.0, n_trajectories=300, master_seed=1)
        force_noise_path(monkeypatch, True)
        pids = forks(monkeypatch)
        with np.errstate(all="ignore"), \
                pytest.warns(RuntimeWarning, match="under-resolves"), \
                pytest.raises(DegenerateStateError,
                              match="trajectory 0 failed at step 1: "):
            run_ensemble(config)
        assert len(pids) == 1

    def test_interrupt_reaps_the_helper(self, monkeypatch):
        kernel, c0 = batch_inputs(2, 3, seed=1)
        blocks = itertools.count()
        steps = kernel.steps

        def interrupted(*args):
            if next(blocks) == 1:      # the second noise block, of 614 steps
                raise KeyboardInterrupt
            return steps(*args)

        monkeypatch.setattr(kernel, "steps", interrupted)
        pids = forks(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            _integrate_eigenbasis(
                kernel, c0, 2, range(3), [],
                replace(plan_for(3, 2, 3000, 10), block=614, helper=True))
        assert len(pids) == 1


class TestRecordReducer:
    # the record reducer, fed hand-made amplitudes, <H> and squared norms,
    # reduces each buffered point as that point alone

    @pytest.mark.parametrize("capacity", [1, 3, 4, 11])
    def test_sums_are_the_per_point_reductions(self, capacity):
        # 21 rows in chunks of 10 (the last one row), 10 record points
        # buffered `capacity` at a time, projectors at the last 4 (which a
        # flush may split), rows 5, 1 and 20 kept
        rows, n, n_rec, projectors, keep = 21, 3, 10, 4, [5, 1, 20]
        rng = np.random.default_rng(capacity)
        kernel, _ = batch_inputs(n, rows, seed=1)
        c = rng.standard_normal((n_rec, rows, n)) \
            + 1j * rng.standard_normal((n_rec, rows, n))
        e = rng.standard_normal((n_rec, rows))
        nrm_sq = 1.0 + 0.1 * rng.standard_normal((n_rec, rows))
        plan = replace(plan_for(rows, n, n_rec - 1, 1, len(keep), 10,
                                projectors=projectors), capacity=capacity)
        with trajectory._RowHelper(plan, rows, n) as split:
            record = trajectory._Record(kernel, range(rows), keep, split)
            for t in range(n_rec):
                record.hold(c[t], e[t], nrm_sq[t])
            record.flush()
        sums = record.sums()
        var = np.array([np.einsum("bi,bi,bi,bi->b", w, w, hd, hd) for w, hd in
                        zip(c.view(np.float64), kernel._pairs - e[..., None])])
        defect = np.sqrt(nrm_sq) - 1.0
        assert len(sums) == 3
        for j, part in enumerate(sums):
            chunk = slice(10 * j, 10 * j + 10)
            for t in range(n_rec):
                assert part.energy_sum[t] == np.sum(e[t, chunk])
                assert part.variance_sum[t] == np.sum(var[t, chunk])
                assert part.max_norm_drift[t] == np.max(np.abs(
                    defect[t, chunk]))
            for p, t in enumerate(range(n_rec - projectors, n_rec)):
                assert np.array_equal(part.projector_sum[p],
                                      c[t, chunk].T @ c[t, chunk].conj())
            assert np.array_equal(part.terminal_variance, var[-1, chunk])
            assert np.array_equal(part.winners, np.bincount(
                np.argmax(np.abs(c[-1, chunk]) ** 2, axis=1), minlength=n))
        records = [rec for part in sums for rec in part.records]
        for k, rec in zip(keep, records, strict=True):   # in chunk order
            assert np.array_equal(rec.times, kernel.dt * np.arange(n_rec))
            assert np.array_equal(rec.energy_mean, e[:, k])
            assert np.array_equal(rec.energy_variance, var[:, k])
            assert np.array_equal(rec.norm_drift, defect[:, k])
            assert np.array_equal(rec.final_state, kernel.vecs @ c[-1, k])


@st.composite
def batch_plans(draw):
    """A batch (count 1..24 rows at n 1..5, n_steps 1..120 at any stride
    up to n_steps + 3, a seed) under a drawn plan: chunk, noise block,
    record capacity, noise group, projectors 0..T and a row helper or not;
    and up to 4 kept rows."""
    count, n = draw(st.integers(1, 24)), draw(st.integers(1, 5))
    n_steps = draw(st.integers(1, 120))
    stride = draw(st.integers(1, n_steps + 3))
    n_rec = trajectory.record_count(n_steps, stride)
    keep = draw(st.lists(st.integers(0, count - 1), max_size=4, unique=True))
    plan = replace(
        plan_for(count, n, n_steps, stride, len(keep)),
        chunk=draw(st.integers(1, count)), block=draw(st.integers(1, n_steps)),
        capacity=draw(st.integers(1, n_rec + 1)),
        group=draw(st.integers(1, count)),
        projectors=draw(st.integers(0, n_rec)), helper=draw(st.booleans()))
    return count, n, keep, plan, draw(st.integers(0, 2 ** 16))


class TestPlanDeterminism:
    # the determinism rule over plans: no bit of a chunk's sums or of a
    # kept row's record depends on how its batch is blocked, buffered,
    # grouped, chunked or split

    @settings(max_examples=300, deadline=None)
    @given(batch_plans())
    def test_every_plan_gives_each_chunk_and_row_its_own_bits(self, batch):
        count, n, keep, plan, seed = batch
        kernel, c0 = batch_inputs(n, count, seed)

        def run(rows, kept, plan):
            return _integrate_eigenbasis(kernel, c0, seed, rows, kept, plan)

        def plain(rows, kept):      # one block, capacity 1, no helper
            return run(rows, kept, replace(
                plan_for(len(rows), n, plan.n_steps, plan.stride, len(kept),
                         projectors=plan.projectors),
                block=plan.n_steps, capacity=1, group=1, helper=0))

        sums = run(range(count), keep, plan)
        for j, lo in enumerate(range(0, count, plan.chunk)):
            hi = min(lo + plan.chunk, count)
            assert_sums_equal(sums[j:j + 1], plain(
                range(lo, hi), [k - lo for k in keep if lo <= k < hi]))
        records = [rec for part in sums for rec in part.records]
        for b, rec in zip(sorted(keep, key=lambda k: k // plan.chunk),
                          records, strict=True):
            alone = plain([b], [0])[0]      # its record is rec, bit for bit
            assert_sums_equal([replace(alone, records=[rec])], [alone])


class TestGaugeTransform:
    def test_identity_phase(self, rng):
        lop = random_hermitian(rng, 3) + 1j * random_hermitian(rng, 3)
        assert np.array_equal(gauge_transform(lop, 1.0), lop)

    def test_nonunit_modulus_rejected(self):
        with pytest.raises(InvalidParameterError):
            gauge_transform(np.eye(2), 1.1)

    @settings(max_examples=50, deadline=None)
    @given(gauge_inputs())
    def test_pathwise_invariance(self, inputs):
        # L -> uL with noise rotated by conj(u) reproduces the trajectory
        # states and the master equation's right-hand side (criterion 8's
        # tolerances)
        lop, u, psi, dt, seed = inputs
        rotated = gauge_transform(lop, u)
        psi_a, psi_b = psi, psi.copy()
        worst = 0.0
        for dxi in sample_dxi_block(dt, 100, NoiseStream(seed)):
            psi_a = qsd_step(psi_a, lop, dxi, dt)
            psi_b = qsd_step(psi_b, rotated, np.conj(u) * dxi, dt)
            worst = max(worst, float(np.max(np.abs(psi_a - psi_b))))
        assert worst < 1e-13
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(lindblad_rhs(rho, lop)
                             - lindblad_rhs(rho, rotated))) < 1e-14

    def test_master_rhs_invariant(self, rng):
        lop = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        psi = random_state(rng, 3)
        rho = np.outer(psi, psi.conj())
        u = np.exp(0.91j)
        a = lindblad_rhs(rho, lop)
        b = lindblad_rhs(rho, gauge_transform(lop, u))
        assert np.max(np.abs(a - b)) < 1e-14


class TestNormDiscipline:
    def test_mean_defect_scales_as_dt_squared(self):
        # E[||psi'||^2 - 1] = ||A psi||^2 dt^2 exactly for the Euler step;
        # halving dt must cut the measured mean defect by ~4
        h = np.diag([3.0, -3.0])
        psi = np.array([1, 1]) / np.sqrt(2)
        mean_coarse = norm_defect_samples(psi, h, 1.0, 0.01, 400_000,
                                          NoiseStream(4, 0)).mean()
        mean_fine = norm_defect_samples(psi, h, 1.0, 0.005, 400_000,
                                        NoiseStream(4, 1)).mean()
        ratio = mean_coarse / mean_fine
        assert 4.0 / 1.3 < ratio < 4.0 * 1.3

    def test_defect_mean_matches_analytic_value(self):
        h = np.diag([2.0, -2.0])
        psi = np.array([1, 1]) / np.sqrt(2)
        tau0, dt = 1.0, 0.02
        hd_psi = h @ psi
        a_psi = -1j * hd_psi - 0.5 * tau0 * (h @ hd_psi)
        expected = float(np.vdot(a_psi, a_psi).real) * dt ** 2
        measured = norm_defect_samples(psi, h, tau0, dt, 600_000,
                                       NoiseStream(9)).mean()
        assert measured == pytest.approx(expected, rel=0.15)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("dt", [1e-3, 0.3])
    def test_samples_are_the_kernel_step_of_n_rows(self, dim, dt):
        # each sample has the bits of the row stepped alone, as a rank-1
        # row, against its draw
        rng = np.random.default_rng(dim)
        h, psi = random_hermitian(rng, dim), random_state(rng, dim)
        n = 7
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            samples = norm_defect_samples(psi, h, 0.6, dt, n, NoiseStream(3, dim))
            kernel = _EigenKernel(h, dt, 0.6)
        c = kernel.vecs.conj().T @ psi
        coeff = kernel.coefficients(sample_dxi_block(dt, n, NoiseStream(3, dim)))
        expected = [kernel.step(c, kernel.mean_energy(c), z)[2] - 1.0
                    for z in coeff]
        assert np.array_equal(samples, expected)

    def test_sample_count_is_a_whole_number(self, rng):
        for n in (0, 2.5, True):
            with pytest.raises(InvalidParameterError, match="n must be"):
                norm_defect_samples(random_state(rng, 2), np.eye(2), 1.0,
                                    1e-3, n, NoiseStream(0))

    def test_state_of_another_dimension_is_a_shape_error(self, rng):
        with pytest.raises(ShapeError, match="dimension mismatch"):
            norm_defect_samples(random_state(rng, 3), np.eye(2), 1.0, 1e-3,
                                4, NoiseStream(0))

    def test_sample_beyond_memory_is_refused_before_it_is_drawn(self, rng):
        # 10^12 draws would take 32 TB at the peak
        with pytest.raises(InvalidParameterError, match="physical memory"):
            norm_defect_samples(random_state(rng, 2), np.eye(2), 1.0, 1e-3,
                                10 ** 12, NoiseStream(0))


def one_trajectory(h, psi0, **fields):
    return SimulationConfig(hamiltonian=h, initial_state=psi0,
                            n_trajectories=1, **fields)


class TestRunTrajectory:
    def test_long_run_localizes(self):
        # t >> hbar^2 / (tau0 dE^2) = 0.25 drives Var H below 1e-6 dE^2
        config = one_trajectory(np.diag([1.0, -1.0]), np.array([1, 1]) / np.sqrt(2),
                                tau0=1.0, dt=1e-3, t_final=10.0, master_seed=42,
                                record_stride=500)
        rec = run_trajectory(config, 0)
        assert rec.energy_variance[-1] < 1e-6 * 2.0 ** 2

    def test_deterministic_record(self, tmp_path):
        config = one_trajectory(np.diag([0.7, -0.7]), np.array([1, 1j]) / np.sqrt(2),
                                tau0=0.5, dt=1e-3, t_final=0.5, master_seed=8,
                                record_stride=50)
        a = run_trajectory(config, 0)
        b = run_trajectory(config, 0)
        assert np.array_equal(a.energy_mean, b.energy_mean)
        assert np.array_equal(a.final_state, b.final_state)
        a.write_json(tmp_path / "a.json", {})
        b.write_json(tmp_path / "b.json", {})
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()

    def test_martingale_of_populations(self):
        # diagonal H: ensemble mean of each population is conserved; streams
        # (21, k), k < 400, run as one ensemble, and with H = diag(1, -1)
        # the final population of the +1 level is (1 + <H>) / 2
        config = SimulationConfig(
            hamiltonian=np.diag([1.0, -1.0]),
            initial_state=np.array([np.sqrt(0.7), np.sqrt(0.3)], dtype=complex),
            tau0=0.5, dt=2e-3, t_final=1.0, n_trajectories=400,
            master_seed=21, record_stride=500)
        summary = run_ensemble(config, retain=range(400))
        finals = np.array([0.5 * (1.0 + rec.energy_mean[-1])
                           for rec in summary.trajectories.values()])
        se = finals.std(ddof=1) / np.sqrt(len(finals))
        assert abs(finals.mean() - 0.7) < 4.0 * se

    def test_csv_output(self, tmp_path):
        config = one_trajectory(np.diag([1.0, -1.0]), np.array([1, 1]) / np.sqrt(2),
                                tau0=0.3, dt=1e-3, t_final=0.02, master_seed=2,
                                record_stride=7)
        rec = run_trajectory(config, 0)
        path = tmp_path / "traj.csv"
        rec.write_csv(path, {"note": "test"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# note = test"
        assert lines[1] == "t,e_mean,e_var,norm_drift"
        # strides 0,7,14 plus the forced final step 20
        assert len(lines) == 2 + 4


def test_run_trajectory_shape_mismatch():
    # a state that does not match H never reaches run_trajectory
    with pytest.raises((ShapeError, InvalidParameterError)):
        run_trajectory(one_trajectory(np.eye(3), np.array([1.0, 0.0]), tau0=0.1,
                                      dt=1e-3, t_final=5e-3, master_seed=0), 0)


def test_run_trajectory_stream_index_is_a_count():
    # a whole float runs that stream; a str, None or bool names the field
    config = one_trajectory(np.diag([1.0, -1.0]), np.array([1, 1]) / np.sqrt(2),
                            tau0=0.3, dt=1e-3, t_final=0.02, master_seed=2)
    two = run_trajectory(config, 2)
    assert np.array_equal(run_trajectory(config, 2.0).final_state,
                          two.final_state)
    assert not np.array_equal(run_trajectory(config, 0).final_state,
                              two.final_state)
    for bad in ("2", None, True):
        with pytest.raises(InvalidParameterError, match="stream_index"):
            run_trajectory(config, bad)
