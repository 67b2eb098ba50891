import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import perf_pairs  # noqa: E402


class TestJudge:
    def test_a_clear_gain_meets_both_rules(self):
        parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        change = [x - 0.1 for x in parent]
        v = perf_pairs.judge(parent, change, "lower", 0.24)
        assert v["wins"] == 10 and v["nine_of_ten"] and v["beyond_iqr"]
        assert v["within_bound"]
        assert v["relative"] == pytest.approx(-0.1, abs=2e-3)

    def test_direction_and_ties(self):
        # higher is better: a lower change loses; a tie counts for neither
        parent, change = [10.0, 10.0, 10.0, 10.0], [10.0, 9.0, 9.0, 9.0]
        v = perf_pairs.judge(parent, change, "higher", 0.05)
        assert v["wins"] == 0 and not v["nine_of_ten"]
        assert not v["beyond_iqr"] and not v["within_bound"]

    def test_eight_of_ten_or_within_the_iqr_is_no_gain(self):
        parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
        change = [x - 0.05 for x in parent[:8]] + [x + 0.05 for x in parent[8:]]
        v = perf_pairs.judge(parent, change, "lower", 0.24)
        assert v["wins"] == 8 and not v["nine_of_ten"]
        assert not v["beyond_iqr"]       # 0.05 is inside the IQR of 0.3


def fake_checkout(root: Path, wall: float, log: Path, failed=0,
                  lines=(3, 4), report=()) -> Path:
    """A checkout whose perfbench/run.py appends its name to log and
    prints the report rows `report` and a result line with wall_s = wall
    and `failed` executions, and whose src/qsdsim holds a module of each
    count of `lines`."""
    (root / "perfbench").mkdir(parents=True)
    (root / "src" / "qsdsim").mkdir(parents=True)
    for j, count in enumerate(lines):
        (root / "src" / "qsdsim" / f"m{j}.py").write_text("x = 1\n" * count)
    (root / "src" / "qsdsim" / "notes.txt").write_text("not counted\n")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24}]}))
    (root / "perfbench" / "run.py").write_text(
        "import json\n"
        f"open({str(log)!r}, 'a').write({root.name!r} + '\\n')\n"
        "print('report')\n"
        + "".join(f"print({row!r})\n" for row in report) +
        f"print(json.dumps({{'correct': True, 'attempted': 3, "
        f"'failed': {failed}, "
        f"'metrics': {{'wall_s': {{'value': {wall}, 'unit': 's'}}}}}}))\n")
    return root


def test_pairs_alternate_and_are_judged(tmp_path, capsys):
    log = tmp_path / "order.txt"
    parent = fake_checkout(tmp_path / "parent", 0.4, log)
    change = fake_checkout(tmp_path / "change", 0.3, log, lines=(3, 2, 1))
    assert perf_pairs.main([str(parent), str(change), "--workload", "w",
                            "--seed", "1", "--pairs", "3"]) == 0
    assert log.read_text().split() == ["parent", "change", "change", "parent",
                                       "parent", "change"]
    out = capsys.readouterr().out
    assert out.count("wall_s 0.4 -> 0.3") == 3
    assert "change better in 3 of 3; nine of ten: yes" in out
    assert out.rstrip().endswith("src/ lines: parent 7, change 6 (-1)")


def test_a_failed_run_is_reported(tmp_path, capsys):
    log = tmp_path / "order.txt"
    parent = fake_checkout(tmp_path / "parent", 0.4, log)
    change = fake_checkout(tmp_path / "change", 0.3, log, failed=1)
    assert perf_pairs.main([str(parent), str(change), "--workload", "w",
                            "--seed", "1", "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert out.count("change run failed: exit 0, 1 of 3 executions") == 2
    assert "wall_s" not in out


def test_report_medians_are_printed(tmp_path, capsys):
    # each side's unscaled_wall_s and host_speed: the median over its runs
    # of the value column of perfbench's report row, printed unjudged
    log = tmp_path / "order.txt"

    def rows(unscaled, speed):
        return (f"{'unscaled_wall_s':<28} {unscaled:>14} {'s':<6} {5:>7}  "
                f"{unscaled} [{unscaled}..{unscaled}]",
                f"{'host_speed':<28} {speed:>14} {'ratio':<6} {5:>7}  "
                f"{speed} [{speed}..{speed}]", "wall_s_unscaled 9")

    parent = fake_checkout(tmp_path / "parent", 0.4, log,
                           report=rows(0.5, 0.8))
    change = fake_checkout(tmp_path / "change", 0.3, log,
                           report=rows(0.25, 1.2))
    assert perf_pairs.main([str(parent), str(change), "--workload", "w",
                            "--seed", "1", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert ("unscaled_wall_s (s, perfbench report, not judged): median 0.5 "
            "-> 0.25 (-50.0 %)") in out
    assert ("host_speed (ratio, perfbench report, not judged): median 0.8 "
            "-> 1.2 (+50.0 %)") in out
    assert out.count("wall_s 0.4 -> 0.3") == 2
