"""One qsdsim CLI execution in a fresh interpreter, with its costs.

    python3 perfbench/child.py RESULT.json SPANS.npz|- CONFIG.json QSDSIM_ARG...

Measures set-up (import qsdsim, load and validate CONFIG) and the wall
time of `qsdsim.cli.main(QSDSIM_ARG...)`, then writes RESULT.json with
those times, the host-speed calibration taken just before and just after
the execution, the exit code, the peak RSS of this process and of its
reaped children (the ensemble's worker processes), and the BLAS build and
thread count in force.  With SPANS.npz in place of `-` the run is traced
(see tracing.py) and the spans are saved there.  Expects `src` of the
checkout on PYTHONPATH.
"""

import json
import resource
import sys
import time


def _blas_info() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    info = {"blas_library": libs[0] if libs else None, "blas_config": None,
            "blas_threads": None}
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                info["blas_config"] = get_config().decode()
                info["blas_threads"] = get_threads()
                return info
    return info


def calibrate() -> float:
    """Least time of three passes of a fixed loop that qsdsim does not run.

    Each pass spends about equal time in the interpreter, in numpy calls
    on 8-element vectors, in small batched einsums and in 64x64 complex
    matrix products, the kinds of work the workloads do, so it slows down
    with them when other tenants contend for the host.  Its arrays are
    small enough to leave peak RSS alone.
    """
    import numpy as np

    a = np.full((64, 64), 0.5 + 0.5j)
    b = np.full((512, 2), 1.0 + 0.0j)
    h = np.eye(2, dtype=complex)
    m = np.full((8, 8), 0.125 + 0.0j)
    v = np.full(8, 0.25 + 0.25j)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(75_000):
            total += i * i
        for _ in range(1_000):
            w = m @ v
            v = (v + 1e-3 * (w - np.vdot(v, w).real * v)) / np.linalg.norm(v)
        for _ in range(400):
            np.einsum("ij,bj->bi", h, b)
        for _ in range(120):
            a @ a
        best = min(best, time.perf_counter() - start)
    return best


def main(argv) -> int:
    result_path, spans_path, config_path = argv[:3]
    cli_argv = argv[3:]

    start = time.perf_counter()
    import qsdsim
    from qsdsim import cli, ensemble
    ensemble.load_config(config_path)
    setup_s = time.perf_counter() - start

    entry, tracer = cli.main, None
    if spans_path != "-":
        import tracing
        tracer = tracing.Tracer()
        entry = tracing.install(tracer)

    calibration_before_s = calibrate()
    start = time.perf_counter()
    code = entry(cli_argv)
    wall_s = time.perf_counter() - start
    calibration_after_s = calibrate()

    if tracer is not None:
        tracer.save(spans_path)
    import numpy as np
    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": 0.5 * (calibration_before_s + calibration_after_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "children_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "qsdsim_file": qsdsim.__file__,
        **_blas_info(),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
