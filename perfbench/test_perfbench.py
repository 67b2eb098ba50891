"""Tests of the benchmark itself: inputs, checks and the determinism gate.

    python3 -m pytest perfbench -q

The negative controls corrupt real qsdsim output between the execution
and its check, and require the check to reject it and the run to count
it as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_gives_byte_identical_config(name):
    first = workloads.config_bytes(workloads.make_config(name, 7))
    again = workloads.config_bytes(workloads.make_config(name, 7))
    other = workloads.config_bytes(workloads.make_config(name, 8))
    assert first == again
    assert first != other


def test_workloads_draw_independent_inputs():
    seeds = {workloads.make_config(name, 7)["master_seed"]
             for name in workloads.WORKLOADS}
    assert len(seeds) == len(workloads.WORKLOADS)


class CorruptingRunner(run.Runner):
    """Runner whose chosen executions have their output altered before the check."""

    def __init__(self, name, corrupt, which=(0,)):
        super().__init__(ROOT, name, seed=3)
        self.corrupt, self.which = corrupt, which

    def check(self, out):
        if len(self.executions) in self.which:
            self.corrupt(out, self.config)
        return super().check(out)


def _edit_summary(out, edit):
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    edit(summary)
    path.write_text(json.dumps(summary, indent=2) + "\n")


def _perturb_projector(out, config):
    """Mean projector moved by 0.1 in an off-diagonal; distances made to match."""
    def edit(summary):
        rho = workloads._op_from_json(summary["final_mean_projector"])
        rho += 0.1 * np.array([[0, 1], [1, 0]])
        summary["final_mean_projector"] = workloads._op_json(rho)
        h, psi = workloads._inputs(config)
        exact = workloads.exact_master(h, psi, config["tau0"], summary["times"][-1])
        summary["trace_distance_to_master"][-1] = workloads._trace_distance(rho, exact)
    _edit_summary(out, edit)


def _shift_winners(out, config):
    """Move a tenth of the trajectories from one terminal eigenstate to another."""
    def edit(summary):
        born = summary["born_frequencies"]
        born[0], born[1] = born[0] + 0.1, born[1] - 0.1
    _edit_summary(out, edit)


def _touch_header(out, config):
    """Change a comment byte only: every check passes, the hash does not."""
    path = out / "ensemble.csv"
    path.write_text(path.read_text().replace("# units", "#  units", 1))


def _run_once(runner, **kwargs):
    try:
        return runner.execute(**kwargs)
    finally:
        runner.close()


def test_clean_output_passes():
    runner = run.Runner(ROOT, "qubit_compare", seed=3)
    assert _run_once(runner).problems == []


def test_perturbed_mean_projector_fails_trace_distance_check():
    runner = CorruptingRunner("qubit_compare", _perturb_projector)
    execution = _run_once(runner)
    assert any("trace distance to master" in p for p in execution.problems)
    assert runner.failures() == 1 and len(runner.executions) == 1


def test_shifted_winner_counts_fail_born_check():
    runner = CorruptingRunner("record_ensemble", _shift_winners)
    execution = _run_once(runner)
    assert any("born frequencies" in p for p in execution.problems)
    assert runner.failures() == 1


def test_output_differing_from_first_execution_is_a_failure():
    runner = CorruptingRunner("qubit_compare", _touch_header, which=(1,))
    try:
        first, second = runner.execute(), runner.execute()
    finally:
        runner.close()
    assert first.problems == []
    assert second.problems == ["output differs from the run's first execution"]
    assert runner.failures() == 1


def test_trajectory_replay_detects_a_wrong_seed():
    config = workloads.make_config("single_trajectory", 3)
    mean, var = workloads.replay_first_record(config)
    config["master_seed"] += 1
    other_mean, other_var = workloads.replay_first_record(config)
    assert abs(mean - other_mean) > 1e-6 or abs(var - other_var) > 1e-6


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "qubit_compare", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
