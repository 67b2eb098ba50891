"""qsdsim benchmark: run one workload through the CLI and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qsdsim checkout.  The load is a closed loop with
one client: each execution of `qsdsim.cli.main` starts in a fresh
interpreter (perfbench/child.py) after the previous one has finished,
until S seconds have passed.  Every execution's output is checked
(workloads.check_output) and hashed; a non-zero exit, a failed check or
output that differs from the run's first execution counts as a failure.

--trace 0 reports the end-to-end metrics, each the median over the run's
executions.  --trace 1 alternates untraced and traced single-process
executions and reports per-layer metrics from the spans (tracing.py).
The human-readable report comes first; the last line of standard output
is one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench-work"
MIN_TIMED = 3            # executions per --trace 0 run, however short --seconds
MIN_PAIRS = 2            # untraced/traced pairs per --trace 1 run
EXEC_TIMEOUT_S = 150

# child.calibrate() on an uncontended core of the reference host
# (2-CPU Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
# Other tenants of a shared host slow executions down by up to half, in
# phases lasting from seconds to many minutes.  Every time on the result
# line is therefore scaled to the reference speed: the measured time times
# CALIBRATION_REF_S / the calibration taken in the same process just
# before and after.  The report prints the unscaled times too.
CALIBRATION_REF_S = 0.0190
# Units of the report-only rows of an untraced run.
EXTRA_UNITS = {"worker_peak_rss_mb": "MB", "unscaled_wall_s": "s",
               "unscaled_setup_s": "s", "host_speed": "ratio"}
COMPUTED = ("ensemble.traj_steps", "ensemble.record_points",
            "ensemble.result_bytes", "master.states_bytes", "trajectory.steps")


@dataclass
class Execution:
    """One finished CLI execution: its child report, output hash and problems."""

    report: dict
    digest: str
    problems: list
    traced: dict            # per-layer metrics of a traced execution


class Runner:
    """Runs executions of one workload inside a private work directory."""

    def __init__(self, root: Path, name: str, seed: int):
        self.root, self.name = root, name
        self.config = workloads.make_config(name, seed)
        self.work = root / WORK_DIR / f"{name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_bytes(workloads.config_bytes(self.config))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
        self.executions = []

    def execute(self, workers=None, traced=False) -> Execution:
        i = len(self.executions)
        out = self.work / f"out-{i}"
        result = self.work / f"result-{i}.json"
        spans = self.work / f"spans-{i}.npz"
        argv = workloads.cli_args(self.name, self.config_path, out, workers)
        command = [sys.executable, str(HERE / "child.py"), str(result),
                   str(spans) if traced else "-", str(self.config_path)] + argv
        proc = subprocess.Popen(command, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=EXEC_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _stop(proc)
            _, err = proc.communicate()
        except BaseException:       # interrupted: stop the child's session too
            _stop(proc)
            raise
        report, problems, layer, digest = {}, [], {}, ""
        if proc.returncode != 0 or not result.exists():
            problems.append(f"child exited {proc.returncode}: "
                            f"{err.decode(errors='replace')[-400:]}")
        else:
            report = json.loads(result.read_text())
            if report["exit_code"] != 0:
                problems.append(f"qsdsim exited {report['exit_code']}: "
                                f"{err.decode(errors='replace')[-400:]}")
            else:
                try:
                    problems += self.check(out)
                    digest = _digest(out)
                except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                    problems.append(f"unreadable output: {exc!r}")
                if traced:
                    try:
                        layer = tracing.layer_metrics(spans)
                    except ValueError as exc:
                        problems.append(str(exc))
        if self.executions and digest != self.executions[0].digest:
            problems.append("output differs from the run's first execution")
        for path in (out, result, spans):
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        ex = Execution(report, digest, problems, layer)
        self.executions.append(ex)
        return ex

    def check(self, out: Path) -> list:
        """Problems with one execution's output directory."""
        return workloads.check_output(self.name, self.config, out)

    def failures(self) -> int:
        return sum(1 for e in self.executions if e.problems)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (self.root / WORK_DIR).rmdir()
        except OSError:
            pass


def _stop(proc):
    """Kill a child and the worker processes of its session; reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def declared_metrics(root: Path):
    """Units of the end-to-end and per-layer metrics in BENCHMARK.json.

    The result line carries exactly these.  Layer times that are zero by
    construction on a workload that bypasses the layer (the master on
    record_ensemble, say) are not declared: the line carries only times
    that every workload measures, and the report prints the rest.
    """
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def _environment(root: Path, runner: Runner, seed: int) -> dict:
    first = next((e.report for e in runner.executions if e.report), {})
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "blas": first.get("blas_config"),
        "blas_threads": first.get("blas_threads"),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "workload": runner.name,
        "seed": seed,
        "config_sha256": hashlib.sha256(
            workloads.config_bytes(runner.config)).hexdigest()[:16],
    }


def _speed(report: dict) -> float:
    """Host speed during one execution, relative to the reference host."""
    return CALIBRATION_REF_S / report["calibration_s"]


def run_untraced(runner: Runner, seconds: float) -> dict:
    """Closed loop of timed executions, then the --workers 1 gate."""
    start = time.perf_counter()
    timed = []
    while len(timed) < MIN_TIMED or time.perf_counter() - start < seconds:
        timed.append(runner.execute())
    pooled = workloads.WORKERS[runner.name] not in (None, 1)
    if pooled:
        runner.execute(workers=1)       # untimed; must match byte for byte
    ok = [e.report for e in timed if not e.problems]
    every = [e.report for e in runner.executions if not e.problems]
    walls = [r["wall_s"] * _speed(r) for r in ok]
    steps = runner.config["n_trajectories"] * workloads.n_steps(runner.config)
    samples = {
        "wall_s": walls,
        "traj_steps_per_s": [steps / w for w in walls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
        "setup_s": [r["setup_s"] * _speed(r) for r in every],
        "unscaled_wall_s": [r["wall_s"] for r in ok],
        "unscaled_setup_s": [r["setup_s"] for r in every],
        "host_speed": [_speed(r) for r in every],
    }
    if pooled:
        samples["worker_peak_rss_mb"] = [r["children_peak_rss_mb"] for r in ok]
    return samples


def run_traced(runner: Runner, seconds: float):
    """Reference execution, then untraced/traced --workers 1 pairs.

    Returns the per-layer metrics of every successful traced execution,
    the fastest first (its self times add up, being one execution), and
    the untraced wall times, scaled to the reference speed.
    """
    reference = runner.execute()
    start = time.perf_counter()
    pairs = []
    while len(pairs) < MIN_PAIRS or time.perf_counter() - start < seconds:
        pairs.append((runner.execute(workers=1),
                      runner.execute(workers=1, traced=True)))
    plain = [u.report["wall_s"] * _speed(u.report) for u, _ in pairs if not u.problems]
    done = [t for _, t in pairs if not t.problems]
    if not done or not plain:
        return [], plain
    config = runner.config
    n = len(config["initial_state"])
    m, steps, points = (config["n_trajectories"], workloads.n_steps(config),
                        workloads.record_count(config))
    for ex in done:
        layer = ex.traced
        ens, mas, traj = (layer["ensemble.run_s"] > 0, layer["master.integrate_s"] > 0,
                          layer["trajectory.run_s"] > 0)
        layer.update({
            "ensemble.traj_steps": m * steps if ens else 0,
            "ensemble.record_points": m * points if ens else 0,
            "ensemble.result_bytes": m * points * (16 * n + 24) if ens else 0,
            "master.states_bytes": (steps + 1) * n * n * 16 if mas else 0,
            "trajectory.steps": steps if traj else 0,
            "ensemble.worker_peak_rss_mb":
                reference.report.get("children_peak_rss_mb", 0.0),
        })
    traced_main = statistics.median(
        ex.traced["cli.main_s"] * _speed(ex.report) for ex in done)
    traced = sorted((ex.traced for ex in done), key=lambda layer: layer["cli.main_s"])
    traced[0]["trace_overhead_frac"] = traced_main / statistics.median(plain) - 1.0
    return traced, plain


def _format(value, unit="") -> str:
    if unit in ("count", "B"):
        return str(int(round(value)))
    return f"{value:.6g}"


def _row(name, value, unit, values, note=""):
    spread = ""
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        spread = f"{_format(q[1], unit)} [{_format(q[0], unit)}..{_format(q[2], unit)}]"
    print(f"{name:<28} {_format(value, unit):>14} {unit:<6} {len(values):>7}  "
          f"{spread}{note}")


_HEADER = f"{'metric':<28} {'value':>14} {'unit':<6} samples  median [q1..q3]"


def report_untraced(samples: dict, units: dict) -> dict:
    """Print every end-to-end metric; return the medians."""
    print(_HEADER)
    values = {}
    for name, runs in samples.items():
        values[name] = statistics.median(runs)
        _row(name, values[name], units.get(name) or EXTRA_UNITS[name], runs)
    return values


def report_traced(traced: list, plain: list, units: dict) -> bool:
    """Print every per-layer metric and the self-time table; check the sums."""
    fastest = traced[0]
    print(_HEADER + "  (value: fastest traced execution)")
    for name in sorted(fastest):
        if name.startswith("layer."):
            continue
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        note = "  (computed)" if name in COMPUTED else ""
        _row(name, fastest[name], unit,
             [layer[name] for layer in traced if name in layer], note)
    main_s, overhead = fastest["cli.main_s"], fastest["trace_overhead_frac"]
    print(f"\n{'layer self time':<28} {'s':>14}  share of cli.main_s")
    for layer in tracing.LAYERS:
        value = fastest[f"layer.{layer}.self_s"]
        print(f"{layer:<28} {value:>14.6g}  {value / main_s:8.1%}")
    print(f"{'cli.main_s (traced)':<28} {main_s:>14.6g}")
    print(f"{'wall_s (untraced, 1 worker)':<28} {statistics.median(plain):>14.6g}  "
          f"median of {len(plain)}, scaled to the reference speed")
    print(f"{'trace_overhead_frac':<28} {overhead:>14.6g}")
    worst = max(abs(sum(layer[f"layer.{x}.self_s"] for x in tracing.LAYERS)
                    / layer["cli.main_s"] - 1.0) for layer in traced)
    ok = worst <= max(abs(overhead), 1e-9)
    print(f"self times sum to cli.main_s within {worst:.2g} in every traced "
          f"execution (limit: |trace_overhead_frac|): {ok}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "qsdsim" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no qsdsim source under {root / 'src'}; "
                         f"run from the root of a qsdsim checkout\n")
        return 2

    end_to_end, per_layer = declared_metrics(root)
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            traced, plain = run_traced(runner, args.seconds)
        else:
            samples = run_untraced(runner, args.seconds)
        env = _environment(root, runner, args.seed)
    finally:
        runner.close()

    failed, attempted = runner.failures(), len(runner.executions)
    print(f"# qsdsim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# environment " + json.dumps(env))
    for e in [e for e in runner.executions if e.problems][:5]:
        print("# FAILED: " + "; ".join(e.problems))
    print(f"{'failed_frac':<28} {failed / attempted:>14.6g} {'':<6} {attempted:>7}")
    if args.trace:
        units = per_layer
        if not traced:
            sys.stderr.write("perfbench: no successful traced execution\n")
            return 1
        sums_ok = report_traced(traced, plain, units)
        values = traced[0]
    else:
        units = end_to_end
        if not samples["wall_s"]:
            sys.stderr.write("perfbench: no successful execution\n")
            return 1
        sums_ok = True
        values = report_untraced(samples, units)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": not failed and sums_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
