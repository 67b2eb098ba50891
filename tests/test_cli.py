import builtins
import errno
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qsdsim
from qsdsim import ensemble, master, qcore, trajectory
from qsdsim.cli import main
from conftest import pairs, random_hermitian, random_state


@pytest.fixture
def config_path(tmp_path):
    data = {
        "units": "natural",
        "hamiltonian": pairs(np.diag([0.5, -0.5])),
        "initial_state": pairs(np.array([1, 1]) / np.sqrt(2)),
        "tau0_mode": "explicit",
        "tau0": 0.4,
        "dt": 2.5e-3,
        "t_final": 1.0,
        "n_trajectories": 40,
        "master_seed": 9,
        "record_stride": 40,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_invalid_input_in_fresh_interpreter(*argv):
    # a fresh interpreter, so an escaping exception would show as a
    # traceback on stderr
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "qsdsim.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("qsdsim: invalid input")
    assert "Traceback" not in proc.stderr
    return proc.stderr


def test_compare_run_does_not_import_numpy_ma(config_path):
    # np.median's NaN check imports numpy.ma (6 to 8 ms in a fresh
    # interpreter); the summary's median is taken without it
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    code = ("import sys; from qsdsim.cli import main; code = main(['compare', "
            "'--config', 'config.json', '--out', 'out']); "
            "print(code, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=config_path.parent, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.split()[-2:] == ["0", "False"]


class TestConstants:
    def test_planck_time_reported(self, capsys):
        code, out = run_cli(capsys, "constants")
        assert code == 0
        payload = json.loads(out)
        assert payload["planck_time_s"] == pytest.approx(5.39e-44, rel=1e-3)


class TestEstimate:
    def test_zero_gap_gives_zero_rate(self, capsys):
        code, out = run_cli(capsys, "estimate", "--delta-e", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["rate_per_s"] == 0.0
        assert payload["decoherence_time_s"] is None
        assert payload["C"] == 1.0

    def test_explicit_tau0(self, capsys):
        code, out = run_cli(capsys, "estimate", "--delta-e", "1e-19",
                            "--tau0", "5.39e-44")
        payload = json.loads(out)
        assert code == 0
        assert payload["rate_per_s"] == pytest.approx(2.42e-14, rel=1e-2)
        assert payload["tau0_s"] == 5.39e-44

    def test_velocity_form(self, capsys):
        code, out = run_cli(capsys, "estimate", "--mass", "2.2e-25",
                            "--v1", "0.03", "--v2", "0.0")
        payload = json.loads(out)
        assert code == 0
        assert payload["delta_E_J"] == pytest.approx(0.5 * 2.2e-25 * 0.03 ** 2)

    def test_height_form(self, capsys):
        code, out = run_cli(capsys, "estimate", "--mass", "1e-25",
                            "--delta-h", "0.15", "--g", "10.0")
        payload = json.loads(out)
        assert payload["delta_E_J"] == pytest.approx(1e-25 * 10.0 * 0.15)

    @pytest.mark.parametrize("argv", [
        ["--delta-e", "1e200"],                        # the square overflows
        ["--mass", "1", "--v1", "1e200", "--v2", "0"],
        ["--delta-e", "1e150"],                        # the rate overflows
    ], ids=["delta-e-squared", "velocity-squared", "rate"])
    def test_overflow_is_invalid_input(self, argv):
        assert_invalid_input_in_fresh_interpreter("estimate", *argv)

    def test_height_gap_overflow_names_the_gap(self):
        # m g dh overflows: refused as the gap, not as |delta_e| = inf
        stderr = assert_invalid_input_in_fresh_interpreter(
            "estimate", "--mass", "1e300", "--delta-h", "1e10")
        assert stderr.endswith("potential energy gap is not finite: inf\n")

    def test_conflicting_forms_rejected(self, capsys):
        assert run_cli(capsys, "estimate", "--delta-e", "1", "--delta-h", "1")[0] == 1
        assert run_cli(capsys, "estimate", "--delta-e", "1", "--mass", "1")[0] == 1
        assert run_cli(capsys, "estimate")[0] == 1
        assert run_cli(capsys, "estimate", "--delta-h", "1")[0] == 1


class TestRunCommands:
    def test_trajectory_writes_files(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "traj"
        code, out = run_cli(capsys, "trajectory", "--config", str(config_path),
                            "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "trajectory.csv").exists()
        assert (out_dir / "trajectory.json").exists()
        payload = json.loads((out_dir / "trajectory.json").read_text())
        assert payload["header"]["units"] == "natural"

    def test_ensemble_writes_files(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "ens"
        code, out = run_cli(capsys, "ensemble", "--config", str(config_path),
                            "--out", str(out_dir), "--trajectories", "16",
                            "--dump-trajectory", "3")
        assert code == 0
        assert (out_dir / "summary.json").exists()
        assert (out_dir / "ensemble.csv").exists()
        assert (out_dir / "trajectory_3.csv").exists()
        assert json.loads(out)["n_trajectories"] == 16

    def test_master_writes_files(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "master"
        code, out = run_cli(capsys, "master", "--config", str(config_path),
                            "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "master.csv").exists()
        assert (out_dir / "master_states.json").exists()
        assert json.loads(out)["final_trace"] == pytest.approx(1.0, abs=1e-10)

    def test_compare_reports_distance(self, capsys, config_path, tmp_path):
        out_dir = tmp_path / "cmp"
        code, out = run_cli(capsys, "compare", "--config", str(config_path),
                            "--out", str(out_dir), "--trajectories", "200")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_trace_distance"] < 0.2
        lines = (out_dir / "ensemble.csv").read_text().splitlines()
        assert not lines[-1].endswith(",nan")

    def test_only_compare_sums_every_projector(self, capsys, monkeypatch,
                                               config_path, tmp_path):
        # ensemble writes the final mean projector and sums it alone;
        # compare reads one at each of the 11 record times
        shapes, run = [], ensemble.run_ensemble

        def spy(*args, **kwargs):
            summary = run(*args, **kwargs)
            shapes.append(summary.mean_projector.shape)
            return summary

        monkeypatch.setattr(ensemble, "run_ensemble", spy)
        for command in ("ensemble", "compare"):
            assert run_cli(capsys, command, "--config", str(config_path),
                           "--out", str(tmp_path / command))[0] == 0
        assert shapes == [(1, 2, 2), (11, 2, 2)]

    def test_worker_counts_give_identical_bytes(self, capsys, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "ensemble", "--config", str(config_path),
                       "--out", str(out_a), "--workers", "1")[0] == 0
        assert run_cli(capsys, "ensemble", "--config", str(config_path),
                       "--out", str(out_b), "--workers", "2")[0] == 0
        for name in ("summary.json", "ensemble.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_output(self, capsys, config_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_cli(capsys, "ensemble", "--config", str(config_path), "--out", str(out_a))
        run_cli(capsys, "ensemble", "--config", str(config_path), "--out", str(out_b),
                "--seed", "12345")
        assert (out_a / "ensemble.csv").read_bytes() \
            != (out_b / "ensemble.csv").read_bytes()

    def test_trajectory_replays_dumped_ensemble_row(self, capsys, tmp_path):
        # an unnormalized configured state: `trajectory --stream k` must
        # start from the bits the ensemble starts from
        rng = np.random.default_rng(17)
        h = random_hermitian(rng, 5)
        psi0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        path = tmp_path / "replay.json"
        path.write_text(json.dumps({
            "hamiltonian": pairs(h),
            "initial_state": pairs(psi0),
            "tau0": 0.4, "dt": 2e-3, "t_final": 3.0, "n_trajectories": 3,
            "master_seed": 13, "record_stride": 25}))

        def data_rows(csv_path):
            return [ln for ln in csv_path.read_bytes().splitlines()
                    if not ln.startswith(b"#")]

        assert run_cli(capsys, "ensemble", "--config", str(path), "--out",
                       str(tmp_path / "ens"), "--dump-trajectory", "2")[0] == 0
        assert run_cli(capsys, "trajectory", "--config", str(path), "--out",
                       str(tmp_path / "traj"), "--stream", "2")[0] == 0
        ensemble_rows = data_rows(tmp_path / "ens" / "trajectory_2.csv")
        assert len(ensemble_rows) == 62
        assert data_rows(tmp_path / "traj" / "trajectory.csv") == ensemble_rows


    def test_lone_trajectory_draws_into_its_block(self, capsys, tmp_path):
        # one row of 60 000 steps draws its one noise block straight into
        # the block: besides the block with its norms (24 bytes a step)
        # it is charged, and holds, less than the one-stream group buffer
        # (16 bytes a step) it once drew through; and it still replays
        # the ensemble's row, drawn through a group buffer
        rng = np.random.default_rng(23)
        path = tmp_path / "lone.json"
        path.write_text(json.dumps({
            "hamiltonian": pairs(random_hermitian(rng, 8) / 4),
            "initial_state": pairs(random_state(rng, 8)),
            "tau0": 0.4, "dt": 1e-3, "t_final": 60.0, "n_trajectories": 3,
            "master_seed": 5, "record_stride": 100}))
        plan = trajectory.batch_plan(1, 8, 60000, 100, 1, 512, False, 0)
        noise, group = 24 * plan.block, 16 * plan.block
        assert plan.block == 60000 and plan.bytes - noise < group
        tracemalloc.start()
        try:
            assert run_cli(capsys, "trajectory", "--config", str(path),
                           "--out", str(tmp_path / "traj"),
                           "--stream", "2")[0] == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - noise < group

        def data_rows(csv_path):
            return [ln for ln in csv_path.read_bytes().splitlines()
                    if not ln.startswith(b"#")]

        assert run_cli(capsys, "ensemble", "--config", str(path), "--out",
                       str(tmp_path / "ens"), "--dump-trajectory", "2")[0] == 0
        ensemble_rows = data_rows(tmp_path / "ens" / "trajectory_2.csv")
        assert len(ensemble_rows) == 602
        assert data_rows(tmp_path / "traj" / "trajectory.csv") == ensemble_rows


def write_master_config(tmp_path, h, dt, t_final):
    data = {
        "units": "natural",
        "hamiltonian": pairs(h),
        "initial_state": pairs(
            random_state(np.random.default_rng(0), len(h))),
        "tau0": 0.4,
        "dt": dt,
        "t_final": t_final,
    }
    path = tmp_path / "master.json"
    path.write_text(json.dumps(data))
    return path


class TestMasterCommand:
    # RK4 and the closed form differ here by at most 1.8e-10 (purity;
    # 1.6e-10 on a density-operator entry, 7.2e-11 on offdiag_abs)
    RK4_TOL = 5e-10

    def test_files_match_stacked_states(self, capsys, tmp_path):
        # the command's files against the RK4 oracle's stacked states, put
        # through the same writers: same layout, values within RK4_TOL
        h = random_hermitian(np.random.default_rng(5), 5)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        path = write_master_config(tmp_path, h, 1e-2, 2.0)
        code, out = run_cli(capsys, "master", "--config", str(path),
                            "--out", str(tmp_path / "out"))
        assert code == 0
        config = qsdsim.load_config(path)
        times, states = master.integrate_master(
            qcore.pure_projector(config.initial_state),
            lambda rho: master.psd_master_rhs(rho, config.hamiltonian,
                                              config.tau0),
            config.dt, config.t_final)
        master.write_summary_csv(tmp_path / "master.csv", zip(times, states),
                                 config.header())
        master.write_snapshots_json(
            tmp_path / "master_states.json",
            [(times[i], states[i]) for i in master.snapshot_indices(len(times))],
            config.header())

        got = (tmp_path / "out" / "master.csv").read_text().splitlines()
        want = (tmp_path / "master.csv").read_text().splitlines()
        assert len(got) == len(want) == 9 + len(times)
        assert got[:9] == want[:9]            # header and column names
        got_t = [row.split(",")[0] for row in got[9:]]
        assert got_t == [row.split(",")[0] for row in want[9:]]
        got_v = np.array([row.split(",")[1:] for row in got[9:]], dtype=float)
        want_v = np.array([row.split(",")[1:] for row in want[9:]], dtype=float)
        assert np.max(np.abs(got_v - want_v)) <= self.RK4_TOL

        text = (tmp_path / "out" / "master_states.json").read_text()
        got = json.loads(text)
        want = json.loads((tmp_path / "master_states.json").read_text())
        assert text == json.dumps(got, indent=2) + "\n"
        assert got["header"] == want["header"]
        assert [s["t"] for s in got["snapshots"]] \
            == [s["t"] for s in want["snapshots"]]
        for a, b in zip(got["snapshots"], want["snapshots"]):
            assert np.max(np.abs(qcore.operator_from_json(a["rho"])
                                 - qcore.operator_from_json(b["rho"]))) \
                <= self.RK4_TOL
        assert json.loads(out)["final_purity"] == pytest.approx(
            float(np.trace(states[-1] @ states[-1]).real), abs=self.RK4_TOL)

    def test_memory_stays_below_stacked_states(self, capsys, tmp_path):
        # 3301 states at n = 32 would stack to 54 MB
        path = write_master_config(tmp_path, np.diag(np.linspace(-1.0, 1.0, 32)),
                                   1e-3, 3.3)
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, "master", "--config", str(path),
                              "--out", str(tmp_path / "out"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len((tmp_path / "out" / "master.csv").read_text().splitlines()) \
            > 3301
        assert peak < 25e6

    def test_failure_leaves_no_master_csv(self, monkeypatch, tmp_path):
        # chunks of 4 states at n = 2; the evaluation of the second chunk
        # of master.csv rows, from t = 4 dt = 1.0, fails
        monkeypatch.setattr(master, "MASTER_CHUNK_BYTES", 4 * 16 * 2 * 2)
        path = write_master_config(tmp_path, np.diag([0.5, -0.5]), 0.25, 5.0)
        partial = tmp_path / "out" / "master.csv.partial"
        exact = master.exact_solution

        def failing(rho0, h, tau0):
            solution = exact(rho0, h, tau0)

            def at(times):
                if times[0] == 1.0 and partial.exists():
                    raise MemoryError("injected in the second chunk")
                return solution(times)
            return at

        monkeypatch.setattr(master, "exact_solution", failing)
        with pytest.raises(MemoryError, match="second chunk"):
            main(["master", "--config", str(path), "--out", str(tmp_path / "out")])
        assert list((tmp_path / "out").glob("master*")) == []

    def test_long_run_streams_its_first_rows(self, monkeypatch, tmp_path):
        # 10^12 steps: an array of the step times alone would take 8 TB
        path = write_master_config(tmp_path, np.diag([0.5, -0.5]), 1e-3, 1e9)
        partial = tmp_path / "out" / "master.csv.partial"
        exact, sizes = master.exact_solution, []

        class Stop(Exception):
            pass

        def stop_in_third_chunk(rho0, h, tau0):
            solution = exact(rho0, h, tau0)

            def at(times):
                if partial.exists():         # the rows, not the snapshots
                    sizes.append(partial.stat().st_size)
                    if len(sizes) == 3:
                        raise Stop
                return solution(times)
            return at

        monkeypatch.setattr(master, "exact_solution", stop_in_third_chunk)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                main(["master", "--config", str(path),
                      "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sizes[0] == 0 < sizes[1] < sizes[2]   # rows arrive chunk by chunk
        assert peak < 16e6                  # measured 3.6 MB: 1 MiB chunks
        assert list((tmp_path / "out").glob("master*")) == []

    def test_one_closed_form_serves_snapshots_and_rows(self, capsys,
                                                       monkeypatch, tmp_path):
        # the snapshots and the 6 chunks of master.csv rows (4 states each
        # at n = 2) are evaluated from one exact_solution: one eigh of H
        monkeypatch.setattr(master, "MASTER_CHUNK_BYTES", 4 * 16 * 2 * 2)
        path = write_master_config(tmp_path, np.diag([0.5, -0.5]), 0.25, 5.0)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: (
            calls.append(args), eigh(*args))[1])
        code, _ = run_cli(capsys, "master", "--config", str(path),
                          "--out", str(tmp_path / "out"))
        assert code == 0
        assert len(calls) == 1


class _FullDisk:
    """A text file whose fourth write fails, as on a full disk."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, text):
        self._writes += 1
        if self._writes == 4:
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        return self._fh.write(text)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


RUN = ("--config", "{config}", "--out", "{out}")
WRITES = [                  # every output file and a command that writes it
    ("summary.json", ("compare", *RUN)),
    ("ensemble.csv", ("compare", *RUN)),
    ("trajectory_1.csv", ("compare", *RUN, "--dump-trajectory", "1")),
    ("trajectory.csv", ("trajectory", *RUN)),
    ("trajectory.json", ("trajectory", *RUN)),
    ("master.csv", ("master", *RUN)),
    ("master_states.json", ("master", *RUN)),
    ("audit.csv", ("noise-audit", "--n", "100", "--out", "{out}/audit.csv")),
]


@pytest.mark.parametrize("name, argv", WRITES, ids=[w[0] for w in WRITES])
def test_failed_write_leaves_no_file(capsys, monkeypatch, config_path, name,
                                     argv):
    # the fourth write to `name` (or to the file it is staged in) fails
    out = config_path.parent / "out"
    out.mkdir()
    real_open = builtins.open

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        staged = Path(file).name in (name, name + ".partial")
        return _FullDisk(fh) if staged and "w" in mode else fh

    monkeypatch.setattr(builtins, "open", open_)
    assert main([arg.format(config=config_path, out=out) for arg in argv]) == 1
    # a failed write is not invalid input
    assert capsys.readouterr().err == (
        f"qsdsim: cannot write {out / name}: "
        f"injected: no space left on device\n")
    assert list(out.glob(name + "*")) == []


class TestSpacetimeCheck:
    def test_passes_with_defaults(self, capsys):
        code, out = run_cli(capsys, "spacetime-check", "--samples", "100",
                            "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"]
        assert payload["max_deviation"] < 1e-12

    def test_negative_seed_wraps(self, capsys):
        # -1 seeds as 2^64 - 1, as in every other command
        code, out = run_cli(capsys, "spacetime-check", "--samples", "100",
                            "--seed", "-1")
        assert code == 0
        assert json.loads(out)["passed"]


class TestNoiseAudit:
    def test_csv_columns(self, capsys):
        code, out = run_cli(capsys, "noise-audit", "--seed", "3", "--n", "20000",
                            "--dt", "0.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dt,n,mean_re,mean_im,mean_sq_re,mean_sq_im,mean_abs_sq"
        row = lines[1].split(",")
        assert float(row[0]) == 0.5
        assert int(row[1]) == 20000
        assert float(row[6]) == pytest.approx(0.5, rel=0.05)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "audit.csv"
        code, _ = run_cli(capsys, "noise-audit", "--n", "1000", "--out", str(path))
        assert code == 0
        assert path.read_text().startswith("dt,n,")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["constants"], ["noise-audit", "--n", "100"]],
                         ids=["constants", "noise-audit"])
def test_failed_stdout_write_exits_1(argv, unbuffered):
    # a fresh interpreter whose stdout is a full device: one line on
    # stderr, no traceback, whether the write or the final flush fails
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qsdsim.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == ("qsdsim: cannot write <stdout>: "
                           "No space left on device\n")


@pytest.mark.parametrize("command", ["compare", "trajectory"])
def test_unresolved_time_step_warns_in_one_line(tmp_path, command):
    # dt * E_max = 1: the run goes on, and a fresh interpreter prints the
    # warning as one qsdsim line, without a file name or source line
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "hamiltonian": pairs(np.diag([5.0, -5.0])),
        "initial_state": pairs(np.array([0.6, 0.8])),
        "tau0": 0.4, "dt": 0.2, "t_final": 2.0, "n_trajectories": 8,
        "master_seed": 1}))
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "qsdsim.cli", command,
                           "--config", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "qsdsim: warning: dt under-resolves the fastest phase (dt*E_max = 1); "
        "the weak-order-1 stepper will be badly biased"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["definitely-not-a-command"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["ensemble", "--config", "/nonexistent/config.json"]) == 1

    def test_invalid_config_contents(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"units": "natural"}))
        assert main(["ensemble", "--config", str(path)]) == 1

    def test_numerical_failure_exits_2(self, capsys, tmp_path):
        # the first step overflows the trajectory's norm
        data = {
            "units": "natural",
            "hamiltonian": pairs(np.diag([1e160, -1e160])),
            "initial_state": pairs(np.array([1, 1]) / np.sqrt(2)),
            "tau0": 1.0,
            "dt": 0.5,
            "t_final": 50.0,
            "master_seed": 1,
        }
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(data))
        with np.errstate(all="ignore"), \
                pytest.warns(RuntimeWarning, match="under-resolves"):
            assert main(["trajectory", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == ("qsdsim: numerical failure: trajectory 0 failed at "
                       "step 1: norm^2 = nan\n")
        assert "np.float64" not in err

    COMPARE = ("compare", "--config", "{config}", "--out", "{dir}/out")
    MASTER = ("master", "--config", "{config}", "--out", "{dir}/out")

    @pytest.mark.parametrize("overrides, argv", [
        ({"t_final": float("nan")}, COMPARE),
        ({"t_final": float("inf")}, COMPARE),
        ({"hamiltonian": [[["0.5", 0.0], [0.0, 0.0]],
                          [[0.0, 0.0], ["minus a half", 0.0]]]}, COMPARE),
        ({"record_strid": 5}, COMPARE),
        ({"t_final": 1.001}, COMPARE),            # 400.4 steps of 2.5e-3
        ({"dt": float("nan")}, COMPARE),
        ({"tau0": float("inf")}, COMPARE),
        ({"C": float("nan")}, COMPARE),
        # [[1e160, 1e160], [0, 1]]: far from hermitian, with overflowing squares
        ({"hamiltonian": [[[1e160, 0.0], [1e160, 0.0]],
                          [[0.0, 0.0], [1.0, 0.0]]]}, COMPARE),
        ({}, ("compare", "--config", "{dir}", "--out", "{dir}/out")),
        ({}, ("compare", "--config", "{config}", "--out", "{config}")),
        ({}, ("noise-audit", "--n", "10", "--out", "{config}/audit.csv")),
        # 10^12 increments: refused before any is drawn
        ({}, ("noise-audit", "--n", "1000000000000", "--dt", "1")),
        ({"initial_state": [[0.0, 0.0], [0.0, 0.0]]}, COMPARE),
        ({"n_trajectories": 2.7, "record_stride": 1.5}, COMPARE),
        ({"n_trajectories": True}, COMPARE),
        ({"dt": True}, COMPARE),
        ({}, ("spacetime-check", "--samples", "3", "--tolerance", "nan")),
        ({}, ("spacetime-check", "--samples", "3", "--tolerance", "0")),
        ({}, ("spacetime-check", "--samples", "3", "--tolerance", "-1")),
        ({"master_seed": None}, COMPARE),
        ({"master_seed": None}, MASTER),
        ({"n_trajectories": None}, COMPARE),
        ({}, ("trajectory", "--config", "{config}", "--out", "{dir}/out",
              "--stream", str(2 ** 64))),
        ({"units": "kelvin"}, COMPARE),
        ({"tau0_mode": "foo"}, COMPARE),
        ({"tau0_mode": "planck"}, COMPARE),
        ({"dt": "2.5e-3"}, COMPARE),
        ({"n_trajectories": "20", "master_seed": "7"}, COMPARE),
        ({"dt": None}, COMPARE),
        # 10^19 steps: n_steps + 1 does not fit int64
        ({"dt": 1e-3, "t_final": 1e16}, MASTER),
        ({"dt": 1e-3, "t_final": 1e16},
         ("trajectory", "--config", "{config}", "--out", "{dir}/out")),
        # 2^63 trajectories or more: a range of them has no len
        ({"n_trajectories": 1e300}, COMPARE),
        ({}, ("ensemble", "--config", "{config}", "--out", "{dir}/out",
              "--trajectories", "9300000000000000000")),
    ], ids=["nan", "infinity", "string-entry", "unknown-key", "fractional-steps",
            "dt-nan", "tau0-infinity", "C-nan", "large-asymmetry",
            "config-is-directory", "out-is-file", "out-under-file",
            "audit-over-memory", "zero-state", "fractional-counts",
            "bool-count", "bool-dt", "tolerance-nan", "tolerance-zero",
            "tolerance-negative", "null-seed", "null-seed-master",
            "null-count", "stream-2-to-64", "units-unknown",
            "tau0-mode-unknown", "planck-natural", "string-dt",
            "string-counts", "null-dt", "steps-beyond-int64-master",
            "steps-beyond-int64-trajectory", "count-beyond-int64",
            "trajectories-beyond-int64"])
    def test_malformed_config_is_invalid_input(self, config_path, overrides,
                                               argv):
        data = json.loads(config_path.read_text())
        data.update(overrides)
        config_path.write_text(json.dumps(data))
        assert_invalid_input_in_fresh_interpreter(*(
            arg.format(config=config_path, dir=config_path.parent)
            for arg in argv))

    @pytest.mark.parametrize("argv, overrides", [
        (["ensemble"], {"dt": 1e-12, "record_stride": 1}),   # 10^12 record points
        (["ensemble", "--dump-trajectory", "40"], {}),      # indices are 0..39
        (["trajectory"], {"dt": 1e-12, "record_stride": 1}),
    ], ids=["over-memory-budget", "dump-index-out-of-range",
            "trajectory-over-memory-budget"])
    def test_refused_before_integration(self, capsys, monkeypatch, config_path,
                                        argv, overrides):
        def fail(*args, **kwargs):
            raise AssertionError("a trajectory chunk was started")
        monkeypatch.setattr(qsdsim.ensemble, "_integrate_eigenbasis", fail)
        data = json.loads(config_path.read_text())
        data.update(overrides)
        config_path.write_text(json.dumps(data))
        code = main([argv[0], "--config", str(config_path),
                     "--out", str(config_path.parent / "out"), *argv[1:]])
        assert code == 1
        assert capsys.readouterr().err.startswith("qsdsim: invalid input")

    @pytest.mark.skipif(sys.platform == "win32",
                        reason="caps its address space with resource")
    def test_huge_count_refused_within_capped_memory(self, config_path):
        # 10^12 trajectories are about 2 * 10^9 chunks; a fresh interpreter
        # that caps its own address space at 2 GB plans and refuses the
        # run, where a list of its jobs would not fit
        run = ("import resource, runpy, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
               "sys.argv[0] = 'qsdsim'; "
               "runpy.run_module('qsdsim.cli', run_name='__main__')")
        src = str(Path(qsdsim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", run, "ensemble", "--config",
             str(config_path), "--out", str(config_path.parent / "out"),
             "--trajectories", str(10 ** 12)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stderr.startswith("qsdsim: invalid input")
        assert "physical memory" in proc.stderr

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_negative_stream_index_exits_1(config_path):
    assert main(["trajectory", "--config", str(config_path),
                 "--stream", "-3"]) == 1
