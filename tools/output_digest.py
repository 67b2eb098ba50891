"""Digest the output of the four perfbench commands, to compare two checkouts.

    python3 tools/output_digest.py [--seeds 3 4] [--workers 1 2] [--against FILE]
                                   [--usage] [--cpus N] [--keep DIR]

Prints one line per (workload, seed, workers): the sha256 over every file
the command writes (each with its name), its standard output and error,
and its exit code.  The commands are those perfbench times
(perfbench/workloads.py: the same generated config and the same CLI
arguments), run by `python3 -m qsdsim.cli` from this checkout's `src`, each
in a fresh interpreter and a fresh directory, with BLAS pinned to one
thread.  record_ensemble also runs at one worker more than the largest
asked for; single_trajectory takes no --workers and runs once per seed.
`qsdsim master` also runs once per seed on the config of each workload
in MASTER, as the line `<workload> master seed=<seed>`.
Two checkouts give the same bytes iff their lists are equal.  With
--against FILE, a listing saved from this script (of the parent checkout,
say), it prints only the lines that differ from FILE's line of the same run,
each followed by FILE's line (or "missing"), and exits 1 if any differs;
runs FILE lists that this invocation does not make are not compared.
With --usage, each run's minor page faults and peak RSS (ru_minflt and
ru_maxrss of its process, from os.wait4) also go to standard error, as
`<run> minflt=<count> maxrss_kb=<KiB>`; standard output is unchanged.
With --cpus N, each command runs on the first N CPUs this process may use
(its affinity is cut in the child before exec), so a batch with a spare
CPU steps half its rows in a row helper, or steps them all in-process:
`--cpus 1 > one.txt`, then `--cpus 2 --against one.txt`, compares the two.
With --keep DIR, each run's output files and standard output are also
saved under DIR/<run>/, <run> being the run's name with `_` for spaces
(`qubit_compare_seed=3_workers=1`); tools/output_values.py compares two
such trees value by value.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

MASTER = ("qubit_compare", "dense64_compare")   # configs `master` runs on


def digest(name: str, seed: int, workers, master=False, cpus=None,
           keep=None) -> tuple[str, object]:
    """sha256 of one execution's files, stdout, stderr and exit code (of
    the workload's command, or with `master` of `qsdsim master` on its
    config), and the resource usage of its process (on the CPUs `cpus`, if
    given); with `keep`, a directory, its files and stdout are copied
    there."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "config.json").write_bytes(workloads.config_bytes(
            workloads.make_config(name, seed)))
        with open(work / "stdout", "w+b") as out, \
                open(work / "stderr", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "qsdsim.cli",
                 *(["master", "--config", "config.json", "--out", "out"]
                   if master else
                   workloads.cli_args(name, "config.json", "out", workers))],
                cwd=work, env=env, stdout=out, stderr=err,
                preexec_fn=cpus and (lambda: os.sched_setaffinity(0, cpus)))
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            h = hashlib.sha256()
            for path in sorted((work / "out").rglob("*")):
                if path.is_file():
                    h.update(str(path.relative_to(work)).encode() + b"\0")
                    h.update(path.read_bytes())
            for stream in (out, err):
                stream.seek(0)
                h.update(b"\0" + stream.read())
            h.update(b"\0" + str(proc.returncode).encode())
        if keep is not None:
            keep.mkdir(parents=True, exist_ok=True)
            if (work / "out").is_dir():
                shutil.copytree(work / "out", keep, dirs_exist_ok=True)
            shutil.copyfile(work / "stdout", keep / "stdout")
        return h.hexdigest(), usage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 4])
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="a saved listing: print only the lines that "
                             "differ from it, and exit 1 if any does")
    parser.add_argument("--usage", action="store_true",
                        help="also print each run's minor page faults and "
                             "peak RSS on standard error")
    parser.add_argument("--cpus", type=int, metavar="N",
                        help="run each command on the first N usable CPUs")
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also save each run's files and stdout under "
                             "DIR/<run>/")
    args = parser.parse_args(argv)
    cpus = None
    if args.cpus is not None:
        usable = sorted(os.sched_getaffinity(0))
        if not 1 <= args.cpus <= len(usable):
            parser.error(f"--cpus must be 1 to {len(usable)}")
        cpus = usable[:args.cpus]
    saved = None
    if args.against is not None:
        saved = {line.rsplit(" ", 1)[0]: line for line in
                 args.against.read_text().splitlines() if line.strip()}
    runs = []       # (run, name, seed, workers, master)
    for name in workloads.WORKLOADS:
        counts = sorted(set(args.workers))
        if name == "record_ensemble":
            counts.append(counts[-1] + 1)
        for seed in args.seeds:
            for w in [None] if name == "single_trajectory" else counts:
                runs.append((f"{name} seed={seed} workers={w or '-'}",
                             name, seed, w, False))
            if name in MASTER:
                runs.append((f"{name} master seed={seed}", name, seed, None,
                             True))
    differ = False
    for run, *what in runs:
        keep = args.keep / "_".join(run.split()) if args.keep else None
        sha, usage = digest(*what, cpus, keep)
        line = f"{run} {sha}"
        if args.usage:
            print(f"{run} minflt={usage.ru_minflt} "
                  f"maxrss_kb={usage.ru_maxrss}", file=sys.stderr, flush=True)
        if saved is None:
            print(line, flush=True)
            continue
        before = saved.get(run)
        if line != before:
            differ = True
            print(f"{line}\n  saved: {before or 'missing'}", flush=True)
    return int(differ)


if __name__ == "__main__":
    sys.exit(main())
