import csv
import io

import numpy as np
import pytest

from qsdsim import (DegenerateStateError, InvalidParameterError, ShapeError,
                    align_global_phase, as_density, as_operator, as_state,
                    normalize, pure_projector, trace_distance)
from qsdsim import qcore
from conftest import random_density, random_hermitian, random_state


class TestProjectorAndDistance:
    def test_projector_is_valid_density(self, rng):
        for n in (1, 2, 4):
            rho = pure_projector(random_state(rng, n))
            as_density(rho)  # raises on violation

    def test_distance_to_self_is_zero(self, rng):
        rho = random_density(rng, 3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        r1 = pure_projector(np.array([1, 0], dtype=complex))
        r2 = pure_projector(np.array([0, 1], dtype=complex))
        assert trace_distance(r1, r2) == pytest.approx(1.0)

    def test_hand_value(self):
        # eigenvalues of diag(1,0) - diag(.5,.5) are +/- 0.5
        assert trace_distance(np.diag([1.0, 0.0]),
                              np.diag([0.5, 0.5])) == pytest.approx(0.5)

    def test_metric_properties(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            a, b, c = (random_density(rng, n) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab >= 0.0
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-12
            assert dab <= 1.0 + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_stack_is_each_pair_alone(self, rng, n):
        # one call on stacks (T, n, n) gives the bits of T calls on pairs,
        # in one group of pairs, or in groups of 16 (the last one 8) at
        # n = 16, or a pair at a time at n = 64
        a = np.array([random_density(rng, n) for _ in range(40)])
        b = np.array([random_density(rng, n) for _ in range(40)])
        dist = trace_distance(a, b)
        assert dist.shape == (40,)
        assert np.array_equal(dist, [trace_distance(p, q)
                                     for p, q in zip(a, b)])
        assert np.array_equal(trace_distance(a.reshape(4, 10, n, n),
                                             b.reshape(4, 10, n, n)),
                              dist.reshape(4, 10))
        assert isinstance(trace_distance(a[0], b[0]), float)
        # empty operators are at distance 0, as taken alone
        assert trace_distance(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
        assert np.array_equal(trace_distance(np.zeros((3, 0, 0)),
                                             np.zeros((3, 0, 0))), np.zeros(3))
        assert trace_distance(a[:0], b[:0]).shape == (0,)
        for x, y in ((a, b[:39]), (a[0, 0], b[0, 0]),
                     (a[..., :0], b[..., :0])):
            with pytest.raises(ShapeError):
                trace_distance(x, y)


class TestNormalize:
    def test_unit_norm_result(self, rng):
        psi = normalize(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateStateError):
            normalize(np.zeros(3, dtype=complex))


class TestConstructors:
    def test_as_state_checks(self):
        with pytest.raises(ShapeError):
            as_state(np.zeros((2, 2)))
        with pytest.raises(InvalidParameterError):
            as_state([2.0, 0.0])
        with pytest.raises(InvalidParameterError):
            as_state([np.nan, 0.0], normalized=False)
        psi = as_state([2.0, 0.0], normalized=False)
        assert psi.dtype == np.complex128

    def test_as_operator_symmetrizes_small_asymmetry(self):
        a = np.array([[1.0, 0.5 + 1e-10j], [0.5, 2.0]])
        h = as_operator(a)
        assert np.max(np.abs(h - h.conj().T)) < 1e-15

    def test_as_operator_rejects_large_asymmetry(self):
        with pytest.raises(InvalidParameterError):
            as_operator([[0.0, 1.0], [0.0, 0.0]])
        # entries whose squares overflow the norm
        with pytest.raises(InvalidParameterError):
            as_operator([[1e160, 1e160], [0.0, 1.0]])

    def test_as_operator_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            as_operator(np.zeros((2, 3)))

    def test_as_density_validation(self, rng):
        as_density(random_density(rng, 3))
        with pytest.raises(InvalidParameterError):
            as_density(np.diag([0.6, 0.6]))          # trace != 1
        with pytest.raises(InvalidParameterError):
            as_density(np.diag([1.5, -0.5]))         # negative eigenvalue
        with pytest.raises(InvalidParameterError):
            as_density([[0.5, 1.0], [0.0, 0.5]])     # not hermitian


class TestPhaseAlignment:
    def test_aligned_phase_matches(self, rng):
        psi = random_state(rng, 4)
        rotated = psi * np.exp(0.37j)
        assert np.max(np.abs(align_global_phase(rotated, psi) - psi)) < 1e-14

    def test_no_rotation_needed(self, rng):
        psi = random_state(rng, 3)
        assert np.max(np.abs(align_global_phase(psi, psi) - psi)) < 1e-15


class TestJson:
    def test_state_round_trip(self, rng):
        psi = random_state(rng, 5)
        again = qcore.state_from_json(qcore.state_to_json(psi))
        assert np.array_equal(psi, again)

    def test_operator_round_trip(self, rng):
        h = random_hermitian(rng, 4)
        again = qcore.operator_from_json(qcore.operator_to_json(h))
        assert np.array_equal(h, again)

    def test_bad_payloads_rejected(self):
        with pytest.raises(ShapeError):
            qcore.state_from_json([[1.0, 0.0, 0.0]])
        with pytest.raises(ShapeError):
            qcore.operator_from_json([[[1.0, 0.0]], [[0.0, 0.0]]])


def test_write_table_rows_are_the_csv_writer_bytes(tmp_path):
    # every row is numbers, formatted by one format string; the bytes are
    # what csv.writer gives for the same cells
    columns = ["a", "b", "c"]
    rows = [
        (float("nan"), float("inf"), -float("inf")),
        (-0.0, 5e-324, -5e-324),
        (np.float64(0.1), np.float64(-1e300), 1.0 / 3.0),
        (np.float64("nan"), np.float64(-0.0), np.float64(2.0) ** 60),
        (0.5, 7, 1e-12),                       # an int
    ]
    path = tmp_path / "t.csv"
    qcore.write_table(path, {"k": 1}, columns, iter(rows))
    expected = io.StringIO(newline="")
    expected.write("# k = 1\n")
    writer = csv.writer(expected)
    writer.writerow(columns)
    writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                     for row in rows)
    with open(path, newline="") as fh:
        assert fh.read() == expected.getvalue()
