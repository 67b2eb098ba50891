import json
import os
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qsdsim import (InvalidParameterError, SimulationConfig, as_density,
                    compare_ensemble_to_master, config_from_dict,
                    integrate_master, load_config, psd_master_rhs,
                    pure_projector, run_ensemble, spacetime,
                    trace_distance)
from qsdsim import ensemble, qcore, trajectory
from qsdsim.ensemble import (run_trajectory, write_ensemble_csv,
                             write_summary_json, write_trajectory_csv)
from conftest import (force_noise_path, helper_term, pairs, random_hermitian,
                      random_state, variance_rise_z)


def make_config(**overrides):
    base = dict(
        hamiltonian=np.diag([0.5, -0.5]),
        initial_state=np.array([1, 1]) / np.sqrt(2),
        tau0=0.4,
        dt=2.5e-3,
        t_final=1.0,
        n_trajectories=100,
        master_seed=11,
        record_stride=40,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def estimate(monkeypatch, run, *args, **kwargs):
    """The bytes `run` passes to qcore.check_memory, which then stops it."""
    class Estimated(Exception):
        pass

    def capture(need, what, advice):
        raise Estimated(need)

    monkeypatch.setattr(qcore, "check_memory", capture)
    with pytest.raises(Estimated) as info:
        run(*args, **kwargs)
    return info.value.args[0]


def series(summary, name):
    """(K, T) stack of one series of the retained trajectories."""
    return np.array([getattr(rec, name) for rec in summary.trajectories.values()])


def config_json_dict(**overrides):
    data = {
        "units": "natural",
        "hamiltonian": pairs(np.diag([0.5, -0.5])),
        "initial_state": pairs(np.array([1, 1]) / np.sqrt(2)),
        "tau0_mode": "explicit",
        "tau0": 0.4,
        "dt": 2.5e-3,
        "t_final": 1.0,
        "n_trajectories": 50,
        "master_seed": 3,
    }
    data.update(overrides)
    return data


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            make_config(n_trajectories=0)
        with pytest.raises(InvalidParameterError):
            make_config(dt=2.0)          # dt > t_final
        with pytest.raises(InvalidParameterError):
            make_config(dt=0.0)
        with pytest.raises(InvalidParameterError):
            make_config(tau0=0.0)        # diffusion runs need tau0 > 0
        with pytest.raises(InvalidParameterError):
            make_config(c_factor=0.0)    # the Planck-time factor C > 0
        with pytest.raises(InvalidParameterError):
            make_config(record_stride=0)
        with pytest.raises(InvalidParameterError):
            make_config(initial_state=np.array([1, 0, 0]))  # dim mismatch
        with pytest.raises(InvalidParameterError):
            make_config(initial_state=np.zeros(2))   # cannot be normalized
        for field, value in (("n_trajectories", 2.7), ("n_trajectories", True),
                             ("n_trajectories", None), ("master_seed", 0.5),
                             ("master_seed", None), ("record_stride", 1.5),
                             ("n_trajectories", "20"), ("master_seed", "7"),
                             ("dt", "2.5e-3"), ("dt", None), ("tau0", 0.4 + 0j),
                             ("t_final", np.complex128(1.0)),
                             ("tau0", 10 ** 400)):
            with pytest.raises(InvalidParameterError, match=field):
                make_config(**{field: value})
        assert make_config(n_trajectories=100.0).n_trajectories == 100
        for t_final in (float("nan"), float("inf"), 1.001):   # 400.4 steps
            with pytest.raises(InvalidParameterError):
                make_config(t_final=t_final)
        si = dict(units="SI", energy_unit_j=2e-19)
        for overrides, message in (
                ({"units": "banana"}, "units"),
                ({"tau0_mode": "foo"}, "tau0_mode"),
                ({"tau0_mode": "planck"}, "natural units"),
                ({"energy_unit_j": 2.0}, "natural units"),
                ({**si, "energy_unit_j": 0.0}, "energy_unit_j"),
                ({**si, "energy_unit_j": -1.0}, "energy_unit_j"),
                ({**si, "energy_unit_j": float("nan")}, "energy_unit_j"),
                ({**si, "tau0_mode": "planck"}, "planck"),   # 0.4 is not C T_P
                *(({name: True}, name)
                  for name in ("tau0", "dt", "t_final", "c_factor"))):
            with pytest.raises(InvalidParameterError, match=message):
                make_config(**overrides)
        config = make_config(tau0=2, dt=1, t_final=np.float32(4), c_factor=3,
                             record_stride=None)
        assert all(type(getattr(config, name)) is float for name in (
            "tau0", "dt", "t_final", "c_factor", "energy_unit_j"))
        assert config.time_unit_s == 1.0
        planck = make_config(**si, tau0_mode="planck", c_factor=2.0,
                             tau0=2.0 * spacetime.planck_time() * 2e-19
                             / spacetime.HBAR)
        assert planck.time_unit_s == spacetime.HBAR / 2e-19

    def test_step_count_must_fit_int64(self):
        # t_final / dt overflows a float, or n_steps + 1 overflows int64
        for dt, t_final in ((1e-300, 1e300), (1e-3, 1e16), (1.0, 2.0 ** 63)):
            with pytest.raises(InvalidParameterError, match=r"t_final=.*dt="):
                make_config(dt=dt, t_final=t_final)
        assert make_config(dt=1.0, t_final=2.0 ** 63 - 1024).n_steps \
            == 2 ** 63 - 1024

    def test_initial_state_is_normalized(self):
        config = make_config(initial_state=np.array([3.0, 0.0]))
        assert np.linalg.norm(config.initial_state) == pytest.approx(1.0)

    def test_auto_record_stride_caps_points(self):
        config = make_config(dt=1e-5, t_final=2.0, record_stride=None)
        assert config.n_steps / config.record_stride <= 10_000

    @pytest.mark.parametrize("dt, t_final, stride", [
        (1e-5, 2.0, 20),            # 200 000 steps
        (1e-3, 10.001, 2),          # 10 001 steps
        (1e-3, 10.0, 1),            # 10 000 steps
        (0.5, 1.0, 1)])
    def test_omitted_record_stride_is_resolved(self, dt, t_final, stride):
        # max(1, ceil(n_steps / 10 000)), held as an int from construction on
        assert make_config(dt=dt, t_final=t_final,
                           record_stride=None).record_stride == stride
        resolved = SimulationConfig(
            hamiltonian=np.eye(2), initial_state=np.array([1.0, 0.0]),
            tau0=0.4, dt=dt, t_final=t_final, n_trajectories=1,
            master_seed=0).record_stride
        assert type(resolved) is int and resolved == stride
        assert config_from_dict(config_json_dict(
            dt=dt, t_final=t_final)).record_stride == stride
        assert make_config(dt=dt, t_final=t_final,
                           record_stride=3).record_stride == 3

    def test_stride_beyond_int64_records_the_ends(self):
        # any stride >= n_steps (400 here) records steps 0 and n_steps
        huge, whole_run = (run_ensemble(make_config(n_trajectories=4,
                                                    record_stride=stride))
                           for stride in (2 ** 64, 400))
        assert np.array_equal(huge.times, [0.0, 1.0])
        assert np.array_equal(huge.mean_energy_variance,
                              whole_run.mean_energy_variance)

    def test_from_dict_natural(self):
        config = config_from_dict(config_json_dict())
        assert config.tau0 == 0.4
        assert config.units == "natural"
        assert config.header() == {
            "units": "natural", "energy_unit_J": 1.0, "time_unit_s": 1.0,
            "hbar_internal": 1.0, "tau0_mode": "explicit",
            "tau0_internal": 0.4, "C": 1.0, "master_seed": 3}

    def test_from_dict_si_rescales(self):
        e_scale = 2e-19
        data = config_json_dict(
            units="SI",
            hamiltonian=pairs(np.diag([e_scale, -e_scale])),
            tau0=1e-20,
            dt=1e-16,
            t_final=1e-14,
        )
        config = config_from_dict(data)
        hbar = spacetime.HBAR
        assert config.energy_unit_j == pytest.approx(e_scale)
        assert config.time_unit_s == hbar / config.energy_unit_j
        # the rescaled hamiltonian has unit spectral radius
        assert np.max(np.abs(np.linalg.eigvalsh(config.hamiltonian))) \
            == pytest.approx(1.0)
        assert config.dt == pytest.approx(1e-16 * e_scale / hbar)
        assert config.tau0 == pytest.approx(1e-20 * e_scale / hbar)

    def test_planck_mode_needs_si(self):
        with pytest.raises(InvalidParameterError):
            config_from_dict(config_json_dict(tau0_mode="planck"))

    def test_planck_mode_resolves_tau0(self):
        data = config_json_dict(
            units="SI",
            hamiltonian=pairs(np.diag([1e-19, -1e-19])),
            tau0_mode="planck",
            C=2.0,
            dt=1e-16,
            t_final=1e-15,
        )
        del data["tau0"]
        config = config_from_dict(data)
        expected = 2.0 * spacetime.planck_time() * 1e-19 / spacetime.HBAR
        assert config.tau0 == pytest.approx(expected)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError, match="record_strid"):
            config_from_dict(config_json_dict(record_strid=5))

    def test_missing_field_rejected(self):
        data = config_json_dict()
        del data["hamiltonian"]
        with pytest.raises(InvalidParameterError):
            config_from_dict(data)

    @pytest.mark.parametrize("key", ["dt", "t_final", "tau0", "C"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_numbers_rejected(self, key, value):
        with pytest.raises(InvalidParameterError, match=key):
            config_from_dict(config_json_dict(**{key: value}))

    @pytest.mark.parametrize("overrides", [
        {"hamiltonian": [[["x", 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]},
        {"initial_state": "psi"},
        {"dt": "small"},
        {"dt": None},
        {"n_trajectories": "many"},
        {"record_stride": [20]},
    ])
    def test_malformed_fields_rejected(self, overrides):
        with pytest.raises(InvalidParameterError):
            config_from_dict(config_json_dict(**overrides))

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_json_dict()))
        config = load_config(path)
        assert config.n_trajectories == 50


class TestRunEnsemble:
    def test_single_trajectory_mean_is_pure(self):
        summary = run_ensemble(make_config(n_trajectories=1))
        for proj in summary.mean_projector:
            as_density(proj)
            purity = np.trace(proj @ proj).real
            assert purity == pytest.approx(1.0, abs=1e-10)

    def test_mean_projector_is_valid_density(self):
        summary = run_ensemble(make_config(n_trajectories=64))
        for proj in summary.mean_projector[::2]:
            as_density(proj)

    def test_energy_martingale_diagonal_h(self):
        config = make_config(n_trajectories=2000, t_final=5.0, record_stride=200)
        summary = run_ensemble(config, retain=range(2000))
        se = series(summary, "energy_mean").std(axis=0, ddof=1) / np.sqrt(2000)
        dev = np.abs(summary.mean_energy - summary.mean_energy[0])
        assert np.all(dev[1:] <= 4.0 * se[1:])

    def test_deterministic_across_worker_counts(self):
        # chunking is fixed, so any worker count gives identical bits
        config = make_config(n_trajectories=600, t_final=0.5, record_stride=20)
        a = run_ensemble(config, workers=1, retain=range(600))
        b = run_ensemble(config, workers=4, retain=range(600))
        assert np.array_equal(series(a, "energy_mean"), series(b, "energy_mean"))
        assert np.array_equal(a.mean_projector, b.mean_projector)
        assert np.array_equal(a.born_frequencies, b.born_frequencies)

    def test_stream_index_equals_trajectory_index(self):
        # trajectory k of an ensemble replays as stream k of a smaller one
        small = run_ensemble(make_config(n_trajectories=3), retain=range(3))
        big = run_ensemble(make_config(n_trajectories=7), retain=range(7))
        assert np.array_equal(series(small, "energy_mean"),
                              series(big, "energy_mean")[:3])

    def test_workers_argument_validated(self):
        with pytest.raises(InvalidParameterError):
            run_ensemble(make_config(), workers=0)
        for workers in (True, 2.5, None):
            with pytest.raises(InvalidParameterError, match="workers"):
                run_ensemble(make_config(), workers=workers)
        with pytest.raises(InvalidParameterError, match="retain"):
            run_ensemble(make_config(), retain=[2.5])
        config = make_config(n_trajectories=4)
        assert np.array_equal(run_ensemble(config, workers=2.0).mean_energy,
                              run_ensemble(config).mean_energy)

    def test_born_frequencies_sum_to_one(self):
        summary = run_ensemble(make_config(n_trajectories=128))
        assert summary.born_frequencies.sum() == pytest.approx(1.0)

    def test_failing_trajectory_reports_index(self):
        # an absurd tau0 overflows the drift within one step; the failure
        # must surface the trajectory index instead of dropping it
        config = make_config(tau0=1e200, n_trajectories=3)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(Exception, match="trajectory 0"):
                run_ensemble(config)


class TestStreamedReductions:
    # M = 1030 spans three trajectory batches
    def test_retaining_trajectories_does_not_change_reductions(self):
        config = make_config(n_trajectories=1030, record_stride=20)
        full = run_ensemble(config, retain=range(1030))
        bare = run_ensemble(config)
        assert bare.trajectories == {}
        assert list(full.trajectories) == list(range(1030))
        for name in ("mean_projector", "mean_energy", "mean_energy_variance"):
            assert np.max(np.abs(getattr(full, name) - getattr(bare, name))) <= 1e-14
        assert np.array_equal(full.born_frequencies, bare.born_frequencies)

        var = series(full, "energy_variance")
        assert np.allclose(full.mean_energy, series(full, "energy_mean").mean(axis=0),
                           rtol=0.0, atol=1e-14)
        assert np.allclose(full.mean_energy_variance, var.mean(axis=0),
                           rtol=0.0, atol=1e-14)
        assert np.array_equal(bare.terminal_variances, var[:, -1])
        assert np.array_equal(bare.max_norm_drift,
                              np.abs(series(full, "norm_drift")).max(axis=0))

    def test_worker_counts_give_identical_reductions(self):
        config = make_config(n_trajectories=1030, record_stride=20)
        runs = [run_ensemble(config, workers=w, retain=[0, 515, 1029])
                for w in (1, 2, 4)]
        for other in runs[1:]:
            for name in ("mean_projector", "mean_energy", "mean_energy_variance",
                         "max_norm_drift", "born_frequencies",
                         "terminal_variances"):
                assert np.array_equal(getattr(runs[0], name), getattr(other, name))
            for k, rec in runs[0].trajectories.items():
                assert np.array_equal(rec.energy_mean,
                                      other.trajectories[k].energy_mean)

    def test_worker_counts_write_identical_files(self, tmp_path):
        # 2600 trajectories at n = 2 are 6 chunks, the last one ragged,
        # which pools of 1, 2 and 3 step as batches of 6, 3 and 2 chunks
        # (run_ensemble caps the pool at the CPU count)
        assert [[len(rows) for rows in ensemble._jobs(2600, 2, p)]
                for p in (1, 2, 3)] == [[2600], [1536, 1064], [1024, 1024, 552]]
        config = make_config(n_trajectories=2600, t_final=0.1, record_stride=4)
        retain, header = [0, 511, 512, 2599], config.header()
        files = []
        for workers in (1, 2, 3):
            summary = run_ensemble(config, workers=workers, retain=retain)
            dist = compare_ensemble_to_master(summary)
            out = tmp_path / str(workers)
            out.mkdir()
            write_summary_json(out / "summary.json", summary, header, dist)
            write_ensemble_csv(out / "ensemble.csv", summary, header, dist)
            for k in retain:
                write_trajectory_csv(out / f"trajectory_{k}.csv", summary, k,
                                     header)
            files.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(files[0]) == 6
        assert files[0] == files[1] == files[2]

    def test_noise_paths_write_identical_files(self, tmp_path, monkeypatch):
        # 1100 steps are more than one noise block for every job: pools of
        # 1, 2 and 3 step every row in-process or split each job with a row
        # helper, and every file keeps its bytes
        config = make_config(n_trajectories=1030, t_final=2.75,
                             record_stride=25)
        retain, header = [0, 511, 512, 1029], config.header()
        files = []
        for workers in (1, 2, 3):
            for helper in (False, True):
                force_noise_path(monkeypatch, helper, workers)
                summary = run_ensemble(config, workers=workers, retain=retain)
                dist = compare_ensemble_to_master(summary)
                out = tmp_path / f"{workers}-{helper}"
                out.mkdir()
                write_summary_json(out / "summary.json", summary, header, dist)
                write_ensemble_csv(out / "ensemble.csv", summary, header, dist)
                for k in retain:
                    write_trajectory_csv(out / f"trajectory_{k}.csv", summary,
                                         k, header)
                files.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(files[0]) == 6
        assert all(f == files[0] for f in files[1:])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("helper", [False, True], ids=["alone", "split"])
    def test_final_only_run_writes_the_same_files(self, tmp_path, monkeypatch,
                                                  workers, helper):
        # a run that sums the final projector alone writes every file of a
        # run that sums one per record time, byte for byte, and its mean
        # projector is the last one of that run; 600 trajectories (a
        # ragged chunk) over 2000 steps at stride 30 (a ragged last step),
        # stepped in one job or two, every row in-process or half of each
        # job's in a row helper
        config = make_config(n_trajectories=600, t_final=5.0,
                             record_stride=30)
        retain, header = [0, 511, 599], config.header()
        force_noise_path(monkeypatch, helper, workers)
        files, summaries = [], []
        for final_only in (False, True):
            summary = run_ensemble(config, workers=workers, retain=retain,
                                   final_projector_only=final_only)
            out = tmp_path / str(final_only)
            out.mkdir()
            write_summary_json(out / "summary.json", summary, header, None)
            write_ensemble_csv(out / "ensemble.csv", summary, header, None)
            for k in retain:
                write_trajectory_csv(out / f"trajectory_{k}.csv", summary, k,
                                     header)
            files.append({f.name: f.read_bytes() for f in out.iterdir()})
            summaries.append(summary)
        every, final = summaries
        assert every.mean_projector.shape == (68, 2, 2)
        assert final.mean_projector.shape == (1, 2, 2)
        assert np.array_equal(final.mean_projector[0], every.mean_projector[-1])
        assert len(files[0]) == 5 and files[0] == files[1]

    def test_pool_and_helper_follow_the_usable_cpus(self, monkeypatch):
        # the pool is capped at the usable CPUs, and a job forks a row
        # helper when there are two per worker
        import concurrent.futures

        seen = []

        class Pool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                seen.append({bool(fn.keywords["plan"].helper)})
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        # a job of 512 rows of 1100 steps has the work for a split, so the
        # plan every job runs forks a helper wherever a CPU is spare
        config = make_config(n_trajectories=1030, t_final=2.75)
        for cpus, expected in ((1, []), (3, [3, {False}]), (6, [3, {True}]),
                               (8, [3, {True}])):
            seen.clear()
            monkeypatch.setattr(qcore, "usable_cpus", lambda: cpus)
            run_ensemble(config, workers=4)
            assert seen == expected

    def test_usable_cpus_is_the_affinity_mask(self, monkeypatch):
        assert qcore.usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert qcore.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert qcore.usable_cpus() == 1

    def test_shape_is_the_jobs_by_arithmetic(self):
        # chunks, jobs and the widest job's rows, without the job list
        for m in (*range(1, 5200, 37), 513, 1024, 1025, 2600, 9999, 10 ** 5):
            for n in (1, 2, 3, 4, 16, 64, 100):
                for pool in (1, 2, 3, 4, 5, 8):
                    jobs = ensemble._jobs(m, n, pool)
                    assert ensemble._shape(m, n, pool) == (
                        -(-m // ensemble.CHUNK_SIZE), len(jobs),
                        max(map(len, jobs)))

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pooled"])
    def test_check_is_of_the_plan_every_job_runs(self, monkeypatch, workers):
        # qcore.check_memory is passed the parent's bytes plus pool_size
        # times the bytes of the very plan each job is given, the plan of
        # the widest job (1030 rows alone, or the 518 of 512 + 518)
        import concurrent.futures

        class Pool:     # runs the jobs here, where the spy sees them
            def __init__(self, max_workers):
                assert max_workers == workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        needs, plans = [], []
        check, simulate = qcore.check_memory, ensemble._integrate_eigenbasis

        def spy_check(need, what, advice):
            needs.append(need)
            check(need, what, advice)

        def spy_job(*args, plan):
            plans.append(plan)
            return simulate(*args, plan=plan)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(qcore, "check_memory", spy_check)
        monkeypatch.setattr(ensemble, "_integrate_eigenbasis", spy_job)
        force_noise_path(monkeypatch, False, workers)
        config = make_config(n_trajectories=1030, t_final=2.75)
        run_ensemble(config, workers=workers, retain=[0, 1029])
        widest = (1030, 518)[workers - 1]
        plan = plans[0]
        assert len(plans) == workers and all(p is plan for p in plans)
        t = trajectory.record_count(1100, 40)
        assert plan == trajectory.batch_plan(widest, 2, 1100, 40, 2, 512,
                                             False, t)
        parent = (3 + 3) * plan.reduction + 2 * t * 32 + 8 * 1030
        assert needs == [parent + workers * plan.bytes]

    def test_jobs_are_whole_chunks_under_the_amplitude_budget(self):
        # criterion 6's 10 chunks at n = 2 make 2 jobs of 5, one per worker
        # of 2 and under the 4096 rows of the budget at 1; at n = 64 a job
        # is one chunk, the most the budget holds
        assert [len(rows) for rows in ensemble._jobs(5000, 2, 1)] == [2560, 2440]
        assert [len(rows) for rows in ensemble._jobs(5000, 2, 2)] == [2560, 2440]
        assert [len(rows) for rows in ensemble._jobs(1030, 64, 1)] == [512, 512, 6]
        for m, n, pool in ((1, 2, 1), (513, 8, 4), (9999, 4, 3)):
            jobs = ensemble._jobs(m, n, pool)
            assert [k for rows in jobs for k in rows] == list(range(m))
            assert all(rows.start % ensemble.CHUNK_SIZE == 0 for rows in jobs)

    def test_worker_counts_agree_with_dense_hamiltonian(self):
        # n = 64 sums the projector with BLAS in every batch; batches are
        # fixed, so the folded reductions do not depend on the pool
        rng = np.random.default_rng(64)
        h = random_hermitian(rng, 64)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        config = make_config(hamiltonian=h, initial_state=random_state(rng, 64),
                             dt=5e-3, t_final=0.05, n_trajectories=1030,
                             record_stride=4)
        one, two = (run_ensemble(config, workers=w) for w in (1, 2))
        for name in ("mean_projector", "mean_energy_variance",
                     "terminal_variances"):
            assert np.array_equal(getattr(one, name), getattr(two, name))

    def test_parent_memory_stays_below_stacked_series(self):
        # stacking M x T x n amplitudes alone would take about 131 MB here
        rng = np.random.default_rng(4)
        config = make_config(hamiltonian=random_hermitian(rng, 4),
                             initial_state=random_state(rng, 4), dt=1e-3,
                             t_final=2.0, n_trajectories=1024, record_stride=1)
        tracemalloc.start()
        try:
            summary = run_ensemble(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.mean_projector.shape == (2001, 4, 4)
        assert peak < 40e6

    def _refuse_chunks(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a trajectory chunk was started")
        monkeypatch.setattr(ensemble, "_integrate_eigenbasis", fail)

    def test_over_budget_run_refused_before_integration(self, monkeypatch):
        self._refuse_chunks(monkeypatch)
        # 10^12 record points
        config = make_config(dt=1e-12, t_final=1.0, record_stride=1)
        with pytest.raises(InvalidParameterError, match="physical memory"):
            run_ensemble(config)

    def test_final_only_fits_where_every_projector_is_refused(self,
                                                              monkeypatch):
        # n = 64, 2001 record points, M = 50 000 and 2 workers on 8019 MiB:
        # the projector sums of every record time in 98 chunks are about
        # 13 GB, so a run that compares is refused, while one that sums the
        # final projector alone is charged 0.1 MB a chunk and is planned
        class Planned(Exception):
            pass

        def planned(*args):
            raise Planned

        physical = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 8019 * 256}
        monkeypatch.setattr(os, "sysconf", physical.__getitem__)
        monkeypatch.setattr(ensemble, "_jobs", planned)
        self._refuse_chunks(monkeypatch)
        force_noise_path(monkeypatch, False, 2)
        config = make_config(hamiltonian=np.diag(np.linspace(-1, 1, 64)),
                             initial_state=np.ones(64) / 8, dt=1e-3,
                             t_final=2.0, n_trajectories=50_000,
                             record_stride=1)
        with pytest.raises(InvalidParameterError, match="physical memory"):
            run_ensemble(config, workers=2)
        with pytest.raises(Planned):
            run_ensemble(config, workers=2, final_projector_only=True)

    def test_serial_estimate_holds_one_job(self, monkeypatch):
        # without a pool the parent folds each job before the next starts:
        # beyond the 8 bytes of each terminal Var H, the estimate does not
        # grow with M once the jobs are as wide as the amplitude budget
        class Estimated(Exception):
            pass

        def capture(need, what, advice):
            raise Estimated(need)

        monkeypatch.setattr(qcore, "check_memory", capture)
        force_noise_path(monkeypatch, False)
        sizes, needs = (8192, 16384, 40960), []
        for m in sizes:
            with pytest.raises(Estimated) as info:
                run_ensemble(make_config(n_trajectories=m, record_stride=1))
            needs.append(info.value.args[0])
        assert np.array_equal(np.diff(needs), 8 * np.diff(sizes))

    def test_helper_path_charges_the_helper(self, monkeypatch):
        # with a CPU spare for a row helper, a run with the work for a
        # split is also charged its helper, and a run without it (100 rows
        # of 400 steps), which forks no helper, is not
        class Estimated(Exception):
            pass

        def capture(need, what, advice):
            raise Estimated(need)

        def need(helper, **fields):
            force_noise_path(monkeypatch, helper)
            with pytest.raises(Estimated) as info:
                run_ensemble(make_config(**fields))
            return info.value.args[0]

        monkeypatch.setattr(qcore, "check_memory", capture)
        assert need(True) == need(False)
        assert need(True, n_trajectories=600, t_final=5.0) \
            - need(False, n_trajectories=600, t_final=5.0) \
            == helper_term(600, 2, 2000, 40) > 0
        # a pair of trajectories with 39 GB of projector sums (n = 64,
        # stride 1, 600 000 steps) is charged no more for its helper than
        # a small run: the helper is forked before the batch allocates
        # them, so a run the in-process path fits in memory fits with a
        # helper too
        big = dict(hamiltonian=np.diag(np.linspace(-0.5, 0.5, 64)),
                   initial_state=np.ones(64) / 8, n_trajectories=2,
                   t_final=1500.0, record_stride=1)
        assert need(False, **big) > 39e9
        assert need(True, **big) - need(False, **big) \
            == helper_term(2, 64, 600000, 1)
        assert 0 < helper_term(2, 64, 600000, 1) < 8 << 20

    def test_trajectory_is_charged_its_own_row(self, monkeypatch):
        # run_trajectory holds one final Var H, not one per trajectory of
        # the config's ensemble, and sums no projector: it is charged what
        # the M = 1 ensemble is charged less the projector sums of its
        # worker's and its parent's chunk and the parent's mean projector
        # with its temporaries (three reductions), with a CPU spare or
        # not: a lone row forks no helper
        config = make_config(t_final=1500.0)
        t = trajectory.record_count(600000, 40)
        projectors = 2 * t * 16 * 2 ** 2 + 3 * t * (16 * 2 ** 2 + 4 * 8)
        for helper in (False, True):
            force_noise_path(monkeypatch, helper)
            assert estimate(monkeypatch, run_trajectory, config, 0) \
                == estimate(monkeypatch, run_ensemble,
                            replace(config, n_trajectories=1),
                            retain=[0]) - projectors

    def test_trajectory_sums_no_projector(self, monkeypatch):
        # 70 001 record points at n = 64 are 4.6 GB of projector sums, but
        # the trajectory's series are 1.6 MiB: it is not refused
        config = make_config(hamiltonian=np.diag(np.linspace(-1, 1, 64)),
                             initial_state=np.ones(64) / 8, dt=1e-3,
                             t_final=70.0, n_trajectories=1, record_stride=1)
        for helper in (False, True):
            force_noise_path(monkeypatch, helper)
            with monkeypatch.context() as m:
                assert estimate(m, run_trajectory, config, 0) < 16 << 20
        # and runs without them: at n = 32 they alone would be 82 MB
        config = replace(config, hamiltonian=np.diag(np.linspace(-1, 1, 32)),
                         initial_state=np.ones(32) / np.sqrt(32), t_final=5.0)
        tracemalloc.start()
        try:
            record = run_trajectory(config, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(record.energy_mean) == 5001
        assert peak < 5e6

    def test_trajectory_refusal_names_only_the_stride(self, monkeypatch):
        self._refuse_chunks(monkeypatch)
        config = make_config(dt=1e-12, t_final=1.0, record_stride=1)
        with pytest.raises(InvalidParameterError,
                           match=r"physical memory; raise record_stride$"):
            run_trajectory(config, 0)

    def test_huge_count_refused_before_its_jobs_are_built(self, monkeypatch):
        # 10^12 trajectories are about 2 * 10^9 chunks; the run is planned
        # and refused by arithmetic, before any list of jobs exists
        def fail(*args):
            raise AssertionError("the jobs were built")

        monkeypatch.setattr(ensemble, "_jobs", fail)
        self._refuse_chunks(monkeypatch)
        for workers in (1, 2):
            with pytest.raises(InvalidParameterError, match="physical memory"):
                run_ensemble(make_config(n_trajectories=10 ** 12),
                             workers=workers)

    def test_no_fork_charges_and_runs_no_helper(self, monkeypatch):
        # with a CPU spare but no os.fork, a run with the work for a split
        # is estimated and run as without a spare CPU
        config = make_config(n_trajectories=600, t_final=5.0)
        monkeypatch.delattr(os, "fork")
        needs, summaries = [], []
        for helper in (True, False):
            force_noise_path(monkeypatch, helper)
            with monkeypatch.context() as m:
                needs.append(estimate(m, run_ensemble, config))
            summaries.append(run_ensemble(config, retain=[0, 599]))
        assert needs[0] == needs[1]
        spare, alone = summaries
        for name in ("mean_projector", "mean_energy", "mean_energy_variance",
                     "max_norm_drift", "born_frequencies",
                     "terminal_variances"):
            assert np.array_equal(getattr(spare, name), getattr(alone, name))
        for k in (0, 599):
            for name in ("energy_mean", "energy_variance", "norm_drift",
                         "final_state"):
                assert np.array_equal(getattr(spare.trajectories[k], name),
                                      getattr(alone.trajectories[k], name))

    def test_retained_index_checked_before_integration(self, monkeypatch):
        self._refuse_chunks(monkeypatch)
        for bad in (-1, 100):
            with pytest.raises(InvalidParameterError, match=str(bad)):
                run_ensemble(make_config(), retain=[0, bad])


class TestCompare:
    def test_distance_zero_at_t0(self):
        config = make_config(n_trajectories=64)
        summary = run_ensemble(config)
        dist = compare_ensemble_to_master(summary)
        assert dist[0] < 1e-12

    def test_final_only_summary_is_refused(self):
        # a summary with the final mean projector alone has none to compare
        # at the other record times: refused, saying how to get them
        summary = run_ensemble(make_config(n_trajectories=8),
                               final_projector_only=True)
        assert summary.mean_projector.shape == (1, 2, 2)
        with pytest.raises(InvalidParameterError,
                           match="without final_projector_only"):
            compare_ensemble_to_master(summary)

    def test_small_over_decoherence_time(self):
        # one decoherence time 2 hbar^2/(tau0 dE^2) = 5.0 for these values
        config = make_config(n_trajectories=800, t_final=5.0, record_stride=100)
        summary = run_ensemble(config)
        dist = compare_ensemble_to_master(summary)
        assert np.max(dist) < 0.08

    def test_quadrupling_ensemble_shrinks_distance(self):
        base = dict(t_final=5.0, record_stride=100)
        d_small = compare_ensemble_to_master(
            run_ensemble(make_config(n_trajectories=250, **base))).max()
        d_large = compare_ensemble_to_master(
            run_ensemble(make_config(n_trajectories=4000, master_seed=77,
                                     **base))).max()
        # ~1/sqrt(M): expect roughly a factor 4 with generous slack
        assert d_large < d_small / 1.5

    def test_closed_form_distances_match_rk4(self):
        # the closed-form master gives the trace distances RK4 states give
        rng = np.random.default_rng(21)
        h = random_hermitian(rng, 8)
        h /= np.max(np.abs(np.linalg.eigvalsh(h)))
        config = make_config(hamiltonian=h, initial_state=random_state(rng, 8),
                             dt=1e-3, t_final=2.0, n_trajectories=16,
                             record_stride=100)
        summary = run_ensemble(config)
        dist = compare_ensemble_to_master(summary)
        _, states = integrate_master(
            pure_projector(config.initial_state),
            lambda r: psd_master_rhs(r, config.hamiltonian, config.tau0),
            config.dt, config.t_final)
        steps = np.rint(summary.times / config.dt).astype(int)
        rk4 = [trace_distance(p, states[k])
               for p, k in zip(summary.mean_projector, steps)]
        assert np.max(np.abs(dist - rk4)) <= 1e-8

    def test_dt_refinement_does_not_worsen_agreement(self):
        # weak-order-1 stepping: the O(dt) bias dominates the deviation at
        # coarse dt and sinks under the Monte Carlo floor once refined
        # (seeds frozen, so the comparison is deterministic)
        def max_distance(dt, stride, seed):
            config = make_config(n_trajectories=8000, dt=dt, t_final=5.0,
                                 record_stride=stride, master_seed=seed)
            summary = run_ensemble(config, workers=2)
            return compare_ensemble_to_master(summary).max()

        coarse = max_distance(0.25, 1, seed=1)
        fine = max_distance(0.0125, 4, seed=2)
        assert fine < 0.5 * coarse
        assert coarse < 0.06
        assert fine < 0.02


def born_deviation_ok(summary):
    """Born frequencies within 4-sigma binomial bounds of the populations."""
    p = summary.initial_populations
    halfwidths = 4.0 * np.sqrt(p * (1.0 - p) / summary.n_trajectories)
    return np.all(np.abs(summary.born_frequencies - p) <= halfwidths + 1e-15)


def localized_fraction(summary):
    """Fraction of terminal Var H <= 1e-6 (E_max - E_min)^2."""
    w = summary.eigenvalues
    threshold = 1e-6 * float(w[-1] - w[0]) ** 2
    return np.mean(summary.terminal_variances <= threshold)


class TestLocalization:
    def test_eigenstate_start_stays_localized(self):
        config = make_config(initial_state=np.array([1.0, 0.0]),
                             n_trajectories=50)
        summary = run_ensemble(config, retain=range(50))
        assert np.max(series(summary, "energy_variance")) < 1e-12
        assert summary.terminal_variances.max() < 1e-12
        assert localized_fraction(summary) == 1.0
        # the eigenstate sits in exactly one energy level
        assert born_deviation_ok(summary)

    def test_long_run_localizes_with_born_frequencies(self):
        config = make_config(
            hamiltonian=np.diag([1.0, -1.0]),
            initial_state=np.array([np.sqrt(0.8), np.sqrt(0.2)]),
            tau0=0.5, dt=2e-3, t_final=36.0,
            n_trajectories=1200, master_seed=5, record_stride=400)
        summary = run_ensemble(config, workers=2, retain=range(1200))
        assert variance_rise_z(summary) <= 4.0
        assert born_deviation_ok(summary)
        # eigenvalues ascending: level -1 carries 0.2, level +1 carries 0.8
        assert np.allclose(summary.initial_populations, [0.2, 0.8], atol=1e-12)
        assert localized_fraction(summary) > 0.999
        assert summary.terminal_variances.max() < 1e-6 * 2.0 ** 2
        assert summary.mean_energy_variance[-1] \
            < 0.05 * summary.mean_energy_variance[0]

    def test_one_level_is_localized(self):
        # a spectrum of zero spread: every terminal Var H is exactly 0,
        # which counts as localized, and mean Var H never rises
        config = make_config(hamiltonian=np.array([[0.7]]),
                             initial_state=np.array([1.0]), n_trajectories=5)
        summary = run_ensemble(config, retain=range(5))
        assert np.all(summary.terminal_variances == 0.0)
        assert localized_fraction(summary) == 1.0
        assert variance_rise_z(summary) == 0.0


class TestOutputs:
    def test_csv_and_json(self, tmp_path):
        config = make_config(n_trajectories=16)
        summary = run_ensemble(config)
        dist = compare_ensemble_to_master(summary)

        csv_path = tmp_path / "ensemble.csv"
        write_ensemble_csv(csv_path, summary, config.header(), dist)
        lines = csv_path.read_text().splitlines()
        header_lines = [ln for ln in lines if ln.startswith("#")]
        assert any("units = natural" in ln for ln in header_lines)
        assert lines[len(header_lines)] == "t,e_mean,e_var_mean,trace_dist"

        json_path = tmp_path / "summary.json"
        write_summary_json(json_path, summary, config.header(), dist)
        payload = json.loads(json_path.read_text())
        assert payload["n_trajectories"] == 16
        assert len(payload["times"]) == len(summary.times)
        assert payload["trace_distance_to_master"] is not None
        proj = qcore.operator_from_json(payload["final_mean_projector"])
        assert trace_distance(proj, summary.mean_projector[-1]) < 1e-12

    @pytest.mark.parametrize("m", [15, 16])
    def test_median_is_numpy_median(self, tmp_path, m):
        # the written median of the terminal Var H, the middle of the
        # sorted values or the mean of the middle two, is np.median's
        summary = run_ensemble(make_config(n_trajectories=m))
        write_summary_json(tmp_path / "summary.json", summary, {}, None)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["terminal_variance_median"] \
            == float(np.median(summary.terminal_variances))

    def test_trajectory_csv(self, tmp_path):
        summary = run_ensemble(make_config(n_trajectories=4), retain=[2])
        path = tmp_path / "trajectory_2.csv"
        write_trajectory_csv(path, summary, 2, {})
        lines = path.read_text().splitlines()
        assert "t,e_mean,e_var,norm_drift" in lines
        with pytest.raises(InvalidParameterError):
            write_trajectory_csv(tmp_path / "x.csv", summary, 99, {})

    def test_nan_column_without_master(self, tmp_path):
        summary = run_ensemble(make_config(n_trajectories=4))
        path = tmp_path / "e.csv"
        write_ensemble_csv(path, summary, {}, None)
        assert path.read_text().splitlines()[-1].endswith(",nan")


def test_unresolved_time_step_warns():
    # the stepper warns, not the config: a master solution is exact at any dt
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = make_config(dt=0.9, t_final=1.8,
                             hamiltonian=np.diag([5.0, -5.0]))
    with pytest.warns(RuntimeWarning, match="under-resolves"):
        run_ensemble(config)
