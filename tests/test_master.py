import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsdsim import (IntegrationFailureError, InvalidParameterError,
                    ShapeError, analytic_offdiagonal, integrate_master,
                    lindblad_from_hamiltonian, lindblad_rhs, psd_master_exact,
                    psd_master_rhs, pure_projector)
from qsdsim.master import max_offdiagonal, snapshot_indices, write_summary_csv
from qsdsim.trajectory import record_steps
from conftest import random_density, random_hermitian, random_state


def two_level_rhs(tau0, e1=1.0, e2=-1.0):
    h = np.diag([e1, e2]).astype(complex)
    return h, (lambda rho: psd_master_rhs(rho, h, tau0))


class TestLindbladRhs:
    def test_identity_gives_zero(self, rng):
        rho = random_density(rng, 3)
        assert np.max(np.abs(lindblad_rhs(rho, np.eye(3)))) < 1e-15

    def test_scalar_gives_zero(self, rng):
        rho = random_density(rng, 3)
        out = lindblad_rhs(rho, (2.0 - 1.5j) * np.eye(3))
        assert np.max(np.abs(out)) < 1e-13

    def test_hand_value(self):
        # L = diag(0,1) damps only the coherences, at rate 1/2
        rho = 0.5 * np.ones((2, 2), dtype=complex)
        out = lindblad_rhs(rho, np.diag([0.0, 1.0]).astype(complex))
        assert np.allclose(out, [[0.0, -0.25], [-0.25, 0.0]], atol=1e-15)

    def test_output_hermitian_traceless(self, rng):
        for _ in range(20):
            rho = random_density(rng, 4)
            lop = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            out = lindblad_rhs(rho, lop)
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert abs(np.trace(out)) < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            lindblad_rhs(random_density(rng, 2), np.eye(3))


class TestPsdMasterRhs:
    def test_eigenprojector_is_stationary(self):
        h = np.diag([1.0, 2.0, 3.0])
        rho = pure_projector(np.array([0, 1, 0], dtype=complex))
        assert np.max(np.abs(psd_master_rhs(rho, h, 0.7))) < 1e-14

    def test_matches_general_dissipator(self, rng):
        for _ in range(30):
            h = random_hermitian(rng, 3)
            rho = random_density(rng, 3)
            tau0 = float(rng.uniform(0.1, 2.0))
            lop = lindblad_from_hamiltonian(h, tau0)
            assert np.max(np.abs(psd_master_rhs(rho, h, tau0)
                                 - lindblad_rhs(rho, lop))) < 1e-12

    def test_diagonal_populations_conserved(self, rng):
        h = np.diag([0.3, 1.1, -0.8])
        rho = random_density(rng, 3)
        out = psd_master_rhs(rho, h, 0.9)
        # commutator and dissipator both leave diagonal entries untouched
        assert np.max(np.abs(np.diag(out).real)) < 1e-14

    def test_negative_tau0_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            psd_master_rhs(random_density(rng, 2), np.eye(2), -0.5)

    def test_nonfinite_parameters_rejected(self, rng):
        rho = random_density(rng, 2)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                psd_master_rhs(rho, np.eye(2), bad)


class TestAnalyticOffdiagonal:
    def test_degenerate_levels_never_decohere(self):
        out = analytic_offdiagonal(0.5 + 0.1j, 2.0, 2.0, tau0=1.0, t=10.0)
        assert out == pytest.approx(0.5 + 0.1j)

    def test_time_zero_is_identity(self):
        assert analytic_offdiagonal(0.3j, 1.0, -1.0, 0.5, 0.0) == 0.3j

    def test_direct_evaluation(self):
        # |factor| = exp(-tau0 dE^2 t / 2) = e^-0.2, phase = -dE t = -2 rad
        out = analytic_offdiagonal(1.0, 2.0, 0.0, tau0=0.1, t=1.0)
        assert abs(out) == pytest.approx(np.exp(-0.2), rel=1e-12)
        assert np.angle(out) == pytest.approx(-2.0, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            analytic_offdiagonal(1.0, 1.0, 0.0, 0.1, -1.0)


class TestIntegrateMaster:
    def test_zero_rhs_is_exact_identity(self, rng):
        rho0 = random_density(rng, 3)
        times, states = integrate_master(rho0, lambda r: lindblad_rhs(r, np.eye(3)),
                                         0.1, 2.0)
        assert np.array_equal(states[-1], states[0])
        assert len(times) == 21

    def test_fourth_order_convergence(self):
        # against the closed-form off-diagonal: halving dt cuts the error ~16x
        h, rhs = two_level_rhs(tau0=0.25)
        rho0 = pure_projector(np.array([1, 1]) / np.sqrt(2))
        errs = []
        for dt in (0.02, 0.01):
            _, states = integrate_master(rho0, rhs, dt, 2.0)
            exact = analytic_offdiagonal(0.5, 1.0, -1.0, 0.25, 2.0)
            errs.append(abs(states[-1][0, 1] - exact))
        ratio = errs[0] / errs[1]
        assert 16.0 / 1.5 < ratio < 16.0 * 1.5

    def test_long_time_diagonal_fixed_point(self):
        h, rhs = two_level_rhs(tau0=1.0)
        rho0 = pure_projector(np.array([np.sqrt(0.7), np.sqrt(0.3)]))
        _, states = integrate_master(rho0, rhs, 0.01, 10.0)
        final = states[-1]
        assert abs(final[0, 1]) < 1e-8
        assert final[0, 0].real == pytest.approx(0.7, abs=1e-9)
        assert final[1, 1].real == pytest.approx(0.3, abs=1e-9)

    def test_trace_and_hermiticity_preserved(self, rng):
        h = random_hermitian(rng, 4)
        rho0 = random_density(rng, 4)
        rhs = lambda rho: psd_master_rhs(rho, h, 0.4)  # noqa: E731
        _, states = integrate_master(rho0, rhs, 0.005, 1.0)
        for rho in states[::50]:
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-14

    def test_purity_monotone_for_selfadjoint_lindblad(self, rng):
        lop = np.diag(rng.standard_normal(3)).astype(complex)
        rho0 = random_density(rng, 3)
        _, states = integrate_master(rho0, lambda r: lindblad_rhs(r, lop),
                                     0.01, 2.0)
        purity = np.array([np.trace(r @ r).real for r in states])
        assert np.all(np.diff(purity) <= 1e-12)

    def test_instability_raises(self):
        h, rhs = two_level_rhs(tau0=1.0, e1=50.0, e2=-50.0)
        rho0 = pure_projector(np.array([1, 1]) / np.sqrt(2))
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(IntegrationFailureError):
                integrate_master(rho0, rhs, 0.5, 50.0)

    def test_positivity_monitor_warns(self):
        # time-reversed decay inflates one population past 1, pushing the
        # other eigenvalue negative while keeping the trace exact
        lop = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        rho0 = np.diag([0.1, 0.9]).astype(complex)
        rhs = lambda rho: -lindblad_rhs(rho, lop)  # noqa: E731
        with pytest.warns(RuntimeWarning, match="positivity"):
            integrate_master(rho0, rhs, 0.01, 0.5)

    def test_config_validation(self):
        rho0, rhs = np.eye(2) / 2, lambda r: lindblad_rhs(r, np.eye(2))
        with pytest.raises(InvalidParameterError):
            integrate_master(rho0, rhs, 0.0, 1.0)
        with pytest.raises(InvalidParameterError):
            integrate_master(rho0, rhs, 2.0, 1.0)
        for t_final in (float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                integrate_master(rho0, rhs, 0.1, t_final)


class TestOutputs:
    def test_summary_csv(self, tmp_path, rng):
        h, rhs = two_level_rhs(tau0=0.5)
        rho0 = pure_projector(np.array([1, 1]) / np.sqrt(2))
        times, states = integrate_master(rho0, rhs, 0.05, 0.5)
        path = tmp_path / "master.csv"
        write_summary_csv(path, zip(times, states), {"units": "natural"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# units = natural"
        assert lines[1] == "t,trace,purity,offdiag_abs"
        assert len(lines) == 2 + len(times)

    @pytest.mark.parametrize("n_times", [2, 63, 64, 65, 1001])
    def test_snapshot_grid(self, n_times):
        # every stride-th time index plus the last, stride n_times // 64
        stride = max(n_times // 64, 1)
        idx = snapshot_indices(n_times)
        gaps = np.diff(idx)
        assert idx[0] == 0 and idx[-1] == n_times - 1
        assert np.all(gaps[:-1] == stride) and 0 < gaps[-1] <= stride

    def test_max_offdiagonal(self):
        rho = np.array([[0.5, 0.2j], [-0.2j, 0.5]])
        assert max_offdiagonal(rho) == pytest.approx(0.2)
        assert max_offdiagonal(np.array([[1.0]])) == 0.0


class TestClosedForm:
    def test_matches_rk4_at_record_times(self):
        rng = np.random.default_rng(88)
        h = random_hermitian(rng, 8)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        rho0 = pure_projector(random_state(rng, 8))
        tau0 = 0.4
        times, states = integrate_master(
            rho0, lambda r: psd_master_rhs(r, h, tau0), 1e-3, 2.0)
        steps = record_steps(len(times) - 1, 100)
        exact = psd_master_exact(rho0, h, tau0, times[steps])
        assert np.max(np.abs(exact - states[steps])) <= 1e-8

    def test_two_level_offdiagonal(self):
        rho0 = pure_projector(np.array([1, 1]) / np.sqrt(2))
        rho = psd_master_exact(rho0, np.diag([1.0, -1.0]), 0.25, [0.0, 3.0])
        assert np.allclose(rho[0], rho0, atol=1e-15)
        expected = analytic_offdiagonal(0.5, 1.0, -1.0, 0.25, 3.0)
        assert abs(rho[1][0, 1] - expected) < 1e-15

    def test_trace_and_positivity(self, rng):
        h = random_hermitian(rng, 6)
        rho0 = random_density(rng, 6)
        for rho in psd_master_exact(rho0, h, 0.7, np.linspace(0.0, 5.0, 11)):
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-12

    def test_rejects_bad_times(self):
        rho0 = pure_projector(np.array([1.0, 0.0]))
        with pytest.raises(InvalidParameterError):
            psd_master_exact(rho0, np.eye(2), 0.1, [np.nan])
        with pytest.raises(InvalidParameterError):
            psd_master_exact(rho0, np.eye(2), 0.1, [-1.0])


_unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def master_inputs(draw):
    """A random hermitian H (n = 2..16, spectral radius <= 1), a random
    density operator and tau0 in [0, 2]."""
    n = draw(st.integers(2, 16))
    a = draw(hnp.arrays(np.float64, (4, n, n), elements=_unit))
    z = a[0] + 1j * a[1]
    h = 0.5 * (z + z.conj().T)
    h /= max(1.0, np.max(np.abs(np.linalg.eigvalsh(h))))
    b = a[2] + 1j * a[3]
    rho = b @ b.conj().T
    trace = np.trace(rho).real
    assume(trace > 0.1)
    return h, rho / trace, draw(st.floats(0.0, 2.0))


class TestClosedFormProperties:
    @settings(max_examples=100, deadline=None)
    @given(master_inputs(),
           hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(0.0, 5.0)))
    def test_density_operator_at_every_time(self, inputs, times):
        h, rho0, tau0 = inputs
        for rho in psd_master_exact(rho0, h, tau0, times):
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() >= -1e-12

    @settings(max_examples=100, deadline=None)
    @given(master_inputs())
    def test_matches_one_rk4_step(self, inputs):
        h, rho0, tau0 = inputs
        _, (_, rk4) = integrate_master(
            rho0, lambda r: psd_master_rhs(r, h, tau0), 1e-3, 1e-3)
        exact = psd_master_exact(rho0, h, tau0, [1e-3])[0]
        assert np.max(np.abs(exact - rk4)) < 1e-10
