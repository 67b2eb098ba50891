"""Time two checkouts with perfbench in alternated pairs, and judge the change.

    python3 tools/perf_pairs.py PARENT CHANGE --workload W --seed N
                                [--pairs K] [--seconds S]

Runs `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`
in the checkout PARENT and in the checkout CHANGE, K times each, one pair
after another in alternated order (PARENT first in pairs 1, 3, 5, ...,
CHANGE first in the others), so that a slow phase of a shared host falls
on both sides.  Each run uses its own checkout's perfbench and src.

For every end-to-end metric of PARENT's BENCHMARK.json it prints each
pair's two values, both medians and their relative change, the parent's
interquartile range (the quartiles perfbench prints), the pairs the change
won (better in the metric's direction), and whether each rule holds:

* nine of ten: the change won at least 9/10 of the pairs;
* IQR: the medians differ by more than the parent's IQR, in the change's
  favour;
* bound: the change's median is worse than the parent's by no more than
  the metric's bound, a fraction of the parent's median.

Under the verdicts it prints, for each of REPORT_ROWS, the median over
the runs of each side's value in perfbench's report (a run's median):
`unscaled_wall_s`, the wall time before scaling to the reference host
speed, and `host_speed`, that speed.  They are not judged; they tell a
shift of the calibration from a change in the program.  Last comes each
checkout's `src/` line count, the lines of its src/qsdsim/*.py (what `cat
src/qsdsim/*.py | wc -l` counts).

A run that exits non-zero, or reports failed executions or `correct:
false`, is printed with its pair; the script then exits 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPORT_ROWS = {"unscaled_wall_s": "s", "host_speed": "ratio"}


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """The metrics of one perfbench run in checkout, from its result line,
    with the values of REPORT_ROWS from its report; or the reason it has
    none or a failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    if proc.returncode or result["failed"] or not result["correct"]:
        return None, (f"exit {proc.returncode}, {result['failed']} of "
                      f"{result['attempted']} executions failed, correct "
                      f"{result['correct']}")
    rows = {f[0]: float(f[1]) for f in map(str.split, lines[:-1])
            if len(f) > 1 and f[0] in REPORT_ROWS}
    return {**rows, **{k: m["value"] for k, m in result["metrics"].items()}}, None


def judge(parent: list, change: list, better: str, bound: float) -> dict:
    """The verdict on one metric from its paired values."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    before, after = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) >= 2
                 else (before,) * 3)
    return {"parent_median": before, "change_median": after,
            "relative": after / before - 1.0 if before else float("nan"),
            "parent_iqr": q3 - q1, "wins": wins, "pairs": len(parent),
            "nine_of_ten": wins >= 0.9 * len(parent),
            "beyond_iqr": sign * (before - after) > q3 - q1,
            "within_bound": sign * (after - before) <= bound * abs(before)}


def src_lines(checkout: Path) -> int:
    """The newlines in checkout's src/qsdsim/*.py, as `wc -l` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "qsdsim").glob("*.py"))


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {checkout}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent, "change": args.change}
    values = {side: [] for side in sides}
    failed = False
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        got = {}
        for side in order:
            got[side], problem = run_once(sides[side], args.workload,
                                          args.seed, args.seconds)
            if problem:
                failed = True
                print(f"pair {i + 1}: {side} run failed: {problem}",
                      flush=True)
        if None in got.values():
            continue
        for side in sides:
            values[side].append(got[side])
        print(f"pair {i + 1} ({order[0]} first): " + ", ".join(
            f"{m['name']} {got['parent'][m['name']]:.6g} -> "
            f"{got['change'][m['name']]:.6g}" for m in spec["end_to_end"]),
            flush=True)
    if not values["parent"]:
        return 1
    print(f"\n# {args.workload}, seed {args.seed}, {len(values['parent'])} "
          f"pairs of {args.seconds:g} s runs, parent -> change")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        v = judge([got[name] for got in values["parent"]],
                  [got[name] for got in values["change"]],
                  metric["better"], metric["bound"])
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"median {v['parent_median']:.6g} -> {v['change_median']:.6g} "
              f"({100 * v['relative']:+.1f} %), parent IQR "
              f"{v['parent_iqr']:.3g}, change better in {v['wins']} of "
              f"{v['pairs']}; nine of ten: {_yes(v['nine_of_ten'])}, beyond "
              f"the IQR: {_yes(v['beyond_iqr'])}, within the bound "
              f"{metric['bound']:g}: {_yes(v['within_bound'])}")
    for name, unit in REPORT_ROWS.items():
        if all(name in got for side in sides for got in values[side]):
            before, after = (statistics.median(got[name] for got in values[side])
                             for side in sides)
            print(f"{name} ({unit}, perfbench report, not judged): median "
                  f"{before:.6g} -> {after:.6g} "
                  f"({100 * (after / before - 1.0):+.1f} %)")
    lines = {side: src_lines(sides[side]) for side in sides}
    print(f"src/ lines: parent {lines['parent']}, change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d})")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
