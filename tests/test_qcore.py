import csv
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsdsim import (DegenerateStateError, InvalidParameterError, ShapeError,
                    SimulationConfig, align_global_phase, as_density,
                    as_operator, as_state, compare_ensemble_to_master,
                    normalize, pure_projector, run_ensemble, run_trajectory,
                    trace_distance)
from qsdsim import ensemble, master, qcore
from qsdsim.cli import main
from conftest import (as_lists, pairs, random_density, random_hermitian,
                      random_state)


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
    def test_state_round_trip(self, rng, tmp_path):
        psi = random_state(rng, 5)
        qcore.write_json(tmp_path / "s.json", {"psi": psi})
        again = qcore.state_from_json(
            json.loads((tmp_path / "s.json").read_text())["psi"])
        assert np.array_equal(psi, again)

    def test_operator_round_trip(self, rng, tmp_path):
        h = random_hermitian(rng, 4)
        qcore.write_json(tmp_path / "h.json", {"h": h})
        again = qcore.operator_from_json(
            json.loads((tmp_path / "h.json").read_text())["h"])
        assert np.array_equal(h, again)

    def test_bad_payloads_rejected(self):
        with pytest.raises(ShapeError):
            qcore.state_from_json([[1.0, 0.0, 0.0]])
        with pytest.raises(ShapeError):
            qcore.operator_from_json([[[1.0, 0.0]], [[0.0, 0.0]]])


def reference(payload) -> str:
    return json.dumps(as_lists(payload), indent=2) + "\n"


def written(path, payload) -> str:
    qcore.write_json(path, payload)
    with open(path, newline="") as fh:
        return fh.read()


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e-310, float("nan")])
ARRAYS = st.sampled_from([np.float64, np.complex128]).flatmap(
    lambda dtype: hnp.arrays(
        dtype, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                max_side=4),
        elements=FLOATS if dtype is np.float64 else st.builds(
            complex, FLOATS, FLOATS)))
SCALARS = (st.none() | st.booleans() | FLOATS | st.text()
           | st.integers(-2 ** 70, 2 ** 70)
           | st.sampled_from([2 ** 53 + 1, -2 ** 64, "\u00e9\"\\\n\t\x00\u2028",
                              "\U0001f600"]))
PAYLOADS = st.recursive(
    SCALARS | ARRAYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


class TestWriteJson:
    """write_json gives the bytes of json.dumps(indent=2) of the payload
    with its arrays as nested lists, complex entries as [re, im] pairs."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(PAYLOADS)
    def test_bytes_are_json_dumps(self, tmp_path, payload):
        assert written(tmp_path / "p.json", payload) == reference(payload)

    @pytest.mark.parametrize("shape", [
        (2500,), (3, 700), (2, 3000), (2, 2, 1100), (1100, 2), (64, 64),
        (0, 5), (5, 0), (2, 0, 3), (1, 1, 1)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_large_arrays_in_pieces(self, tmp_path, shape, dtype):
        # arrays longer than a piece (_CHUNK values) or with rows longer
        # than one, with the special values inside a piece
        a = np.random.default_rng(1).standard_normal(shape).astype(dtype)
        a.ravel()[::97] = np.nan
        a.ravel()[1::101] = -np.inf
        a.ravel()[2::103] = -0.0
        payload = {"a": a, "in": [{"deep": a}, a.T.copy(), 1]}
        assert written(tmp_path / "a.json", payload) == reference(payload)

    def test_stdout_is_the_file_bytes(self, capsys):
        payload = {"x": np.arange(3.0), "z": np.array([1 - 2j]), "s": "é"}
        qcore.write_json(None, payload)
        assert capsys.readouterr().out == reference(payload)

    def test_other_dtypes_go_as_lists(self, tmp_path):
        payload = {"i": np.arange(4).reshape(2, 2), "b": np.array([True]),
                   "f32": np.float32([0.1, -1e-40]), "0d": np.array(2.5)}
        assert written(tmp_path / "o.json", payload) == reference(payload)

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a value json cannot write stops the writer part-way
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            qcore.write_json(path, {"a": np.zeros(3000), "b": object()})
        assert list(tmp_path.iterdir()) == []


class TestPackageWriters:
    """Each JSON output of the package has the bytes json.dumps gives for
    the payload built from nested lists, as the package once built it."""

    @pytest.fixture(scope="class")
    def config(self):
        rng = np.random.default_rng(4)
        return SimulationConfig(
            hamiltonian=random_hermitian(rng, 3), initial_state=random_state(
                rng, 3), tau0=0.4, dt=0.01, t_final=0.2, n_trajectories=5,
            master_seed=3, record_stride=4)

    @pytest.mark.parametrize("with_master", [True, False])
    def test_summary(self, tmp_path, config, with_master):
        summary = run_ensemble(config)
        dist = compare_ensemble_to_master(summary) if with_master else None
        header = config.header()
        path = tmp_path / "summary.json"
        ensemble.write_summary_json(path, summary, header, dist)
        variances = summary.terminal_variances
        assert path.read_text() == json.dumps({
            "header": header,
            "n_trajectories": summary.n_trajectories,
            "dt": config.dt,
            "t_final": config.t_final,
            "times": summary.times.tolist(),
            "mean_energy": summary.mean_energy.tolist(),
            "mean_energy_variance": summary.mean_energy_variance.tolist(),
            "eigenvalues": summary.eigenvalues.tolist(),
            "initial_populations": summary.initial_populations.tolist(),
            "born_frequencies": summary.born_frequencies.tolist(),
            "final_mean_projector": pairs(summary.mean_projector[-1]),
            "trace_distance_to_master": None if dist is None
            else dist.tolist(),
            "terminal_variance_max": float(variances.max()),
            "terminal_variance_median": float(np.median(variances)),
        }, indent=2) + "\n"

    def test_trajectory(self, tmp_path, config):
        record = run_trajectory(config, 2)
        header = {**config.header(), "stream_index": 2}
        record.write_json(tmp_path / "trajectory.json", header)
        assert (tmp_path / "trajectory.json").read_text() == json.dumps({
            "header": header,
            "times": record.times.tolist(),
            "energy_mean": record.energy_mean.tolist(),
            "energy_variance": record.energy_variance.tolist(),
            "norm_drift": record.norm_drift.tolist(),
            "final_state": pairs(record.final_state),
        }, indent=2) + "\n"

    def test_master_snapshots(self, tmp_path, config):
        snapshots = list(master.exact_states(
            master.exact_solution(pure_projector(config.initial_state),
                                  config.hamiltonian, config.tau0),
            len(config.initial_state), config.dt,
            master.snapshot_indices(config.n_steps + 1)))
        path = tmp_path / "master_states.json"
        master.write_snapshots_json(path, snapshots, config.header())
        assert path.read_text() == json.dumps({
            "header": config.header(),
            "snapshots": [{"t": float(t), "rho": pairs(rho)}
                          for t, rho in snapshots],
        }, indent=2) + "\n"

    def test_stdout(self, tmp_path, config, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "hamiltonian": pairs(config.hamiltonian),
            "initial_state": pairs(config.initial_state), "tau0": 0.4,
            "dt": 0.01, "t_final": 0.2, "n_trajectories": 5,
            "master_seed": 3, "record_stride": 4}))
        assert main(["ensemble", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        summary = run_ensemble(config)
        assert capsys.readouterr().out == json.dumps({
            "out": str(tmp_path / "out"),
            "n_trajectories": 5,
            "born_frequencies": [float(v) for v in summary.born_frequencies],
            "final_mean_energy_variance": float(
                summary.mean_energy_variance[-1]),
        }, indent=2) + "\n"


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
