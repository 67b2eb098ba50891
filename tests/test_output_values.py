"""tools/output_values.py on two hand-made trees of kept outputs."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import output_values  # noqa: E402

CSV = ("# units = natural\n# tau0_internal = 0.4\nt,e_mean,trace_dist\r\n"
       "0,0.5,{d0}\r\n0.5,0.25,{d1}\r\n")


def summary(dist, mid_rho=0.5):
    return {"header": {"units": "natural", "C": 1.0}, "times": [0.0, 0.5],
            "final_mean_projector": [[[0.5, 0.0], [mid_rho, 0.1]],
                                     [[mid_rho, -0.1], [0.5, 0.0]]],
            "trace_distance_to_master": dist,
            "snapshots": [{"t": 0.0, "rho": [[1.0, 0.0]]},
                          {"t": 0.5, "rho": [[0.75, 0.0]]}]}


def make_tree(root: Path, dist, mid_rho=0.5, stdout_extra=None, csv=None):
    """A kept tree of two runs: a compare run whose summary.json,
    ensemble.csv and stdout carry the trace distances `dist`, and a run
    whose one file is the same in every tree."""
    run = root / "dense64_compare_seed=3_workers=1"
    run.mkdir(parents=True)
    (run / "summary.json").write_text(json.dumps(summary(dist, mid_rho),
                                                 indent=2) + "\n")
    (run / "ensemble.csv").write_text(
        csv or CSV.format(d0=repr(dist[0]), d1=repr(dist[1])),
        newline="")
    (run / "stdout").write_text(json.dumps(
        {"out": "out", "final_trace_distance": dist[-1],
         **(stdout_extra or {})}, indent=2) + "\n")
    other = root / "single_trajectory_seed=3_workers=-"
    other.mkdir()
    (other / "trajectory.csv").write_text("t\r\n0\r\n", newline="")
    return root


def report(a, b):
    lines = list(output_values.compare(a, b))
    assert output_values.main([str(a), str(b)]) == int(any(
        line.rsplit(" ", 1)[-1] not in ("equal", "0.0") for line in lines))
    return lines


def test_equal_trees_print_equal(tmp_path):
    a = make_tree(tmp_path / "a", [0.0, 0.125])
    b = make_tree(tmp_path / "b", [0.0, 0.125])
    assert report(a, b) == [
        "dense64_compare_seed=3_workers=1 ensemble.csv equal",
        "dense64_compare_seed=3_workers=1 stdout equal",
        "dense64_compare_seed=3_workers=1 summary.json equal",
        "single_trajectory_seed=3_workers=- trajectory.csv equal"]
    assert output_values.main([str(a), str(b)]) == 0


def test_moved_values_are_reported_per_key_and_column(tmp_path):
    # the trace distances move by 2^-50 and 2^-48; every other value stays
    a = make_tree(tmp_path / "a", [0.0, 0.125])
    b = make_tree(tmp_path / "b", [2.0 ** -50, 0.125 + 2.0 ** -48])
    lines = report(a, b)
    run = "dense64_compare_seed=3_workers=1"
    assert f"{run} ensemble.csv # equal" in lines
    assert f"{run} ensemble.csv t 0.0" in lines
    assert f"{run} ensemble.csv e_mean 0.0" in lines
    assert f"{run} ensemble.csv trace_dist {2.0 ** -48!r}" in lines
    assert f"{run} summary.json header.units equal" in lines
    assert f"{run} summary.json header.C 0.0" in lines
    assert f"{run} summary.json final_mean_projector 0.0" in lines
    assert f"{run} summary.json trace_distance_to_master {2.0 ** -48!r}" \
        in lines
    assert f"{run} summary.json snapshots.rho 0.0" in lines
    assert f"{run} stdout out equal" in lines
    assert f"{run} stdout final_trace_distance {2.0 ** -48!r}" in lines
    assert "single_trajectory_seed=3_workers=- trajectory.csv equal" in lines
    assert output_values.main([str(a), str(b)]) == 1


def test_nan_strings_missing_files_and_shapes(tmp_path):
    a = make_tree(tmp_path / "a", [0.0, 0.125], mid_rho=0.5)
    b = make_tree(tmp_path / "b", [0.0, 0.125], mid_rho=0.25,
                  stdout_extra={"note": "x"},
                  csv="# units = SI\nt,e_mean\r\nnan,1\r\n")
    (a / "dense64_compare_seed=3_workers=1" / "extra.json").write_text("1\n")
    (b / "record_ensemble_seed=3_workers=2").mkdir()
    (b / "record_ensemble_seed=3_workers=2" / "stdout").write_text("{}\n")
    lines = report(a, b)
    run = "dense64_compare_seed=3_workers=1"
    assert f"{run} summary.json final_mean_projector 0.25" in lines
    assert f"{run} extra.json only in A" in lines
    assert "record_ensemble_seed=3_workers=2 stdout only in B" in lines
    assert f"{run} ensemble.csv # differs" in lines
    assert f"{run} ensemble.csv t,e_mean,trace_dist shape differs" in lines
    assert f"{run} stdout note shape differs" in lines


def test_nan_against_nan_is_no_change():
    assert output_values.change([float("nan"), 1.0], [float("nan"), 1.0]) \
        == "0.0"
    assert output_values.change([float("nan")], [1.0]) == "inf"
    assert output_values.change(["a"], ["b"]) == "differs"
    assert output_values.change([[1.0, 2.0]], [[1.0]]) == "shape differs"
