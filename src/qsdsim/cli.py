"""Command-line surface.

Subcommands: trajectory, ensemble, master, compare, spacetime-check,
estimate, constants, noise-audit.  Exit codes: 0 success, 1 invalid
input or a failed output write, 2 numerical failure.  A warning raised
during a command prints as one `qsdsim: warning:` line.
"""

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import ensemble as ens
from . import master as master_mod
from . import qcore, spacetime
from .ensemble import run_trajectory
from .errors import (DegenerateStateError, InvalidParameterError, OutputError,
                     ShapeError)
from .noise import NoiseStream, moment_audit


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(payload: dict):
    qcore.write_json(None, payload)


def _json_float(x: float):
    return None if math.isinf(x) else x


def _load_config(args) -> ens.SimulationConfig:
    """The config file with the command-line overrides applied."""
    return ens.load_config(args.config, {
        "master_seed": args.seed, "dt": args.dt, "t_final": args.t_final,
        "n_trajectories": getattr(args, "trajectories", None)})


def _out_dir(args) -> Path:
    """The --out directory, created before the run starts."""
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_constants(args) -> int:
    _emit({
        "planck_time_s": spacetime.planck_time(),
        "hbar_J_s": spacetime.HBAR,
        "G_m3_per_kg_s2": spacetime.G,
        "c_m_per_s": spacetime.C_LIGHT,
    })
    return 0


def _cmd_estimate(args) -> int:
    given = [args.delta_e is not None,
             args.v1 is not None or args.v2 is not None,
             args.delta_h is not None]
    if sum(given) != 1:
        raise InvalidParameterError(
            "give exactly one of --delta-e, (--mass --v1 --v2), (--mass --delta-h)")
    if args.delta_e is not None:
        if args.mass is not None:
            raise InvalidParameterError("--mass has no effect with --delta-e")
        delta_e = args.delta_e
    elif args.delta_h is not None:
        if args.mass is None:
            raise InvalidParameterError("--delta-h requires --mass")
        delta_e = spacetime.delta_e_from_height(args.mass, args.delta_h, args.g)
    else:
        if args.mass is None or args.v1 is None or args.v2 is None:
            raise InvalidParameterError("velocity form requires --mass --v1 --v2")
        delta_e = spacetime.delta_e_from_velocities(args.mass, args.v1, args.v2)

    t_pl = spacetime.planck_time()
    if args.tau0 is not None:
        tau0, c_factor = args.tau0, args.tau0 / t_pl
    else:
        c_factor = args.C
        tau0 = spacetime.fluctuation_time_constant(c_factor)
    est = spacetime.decoherence_rate(delta_e, tau0)
    _emit({
        "tau0_s": tau0,
        "delta_E_J": delta_e,
        "rate_per_s": est.rate_per_s,
        "decoherence_time_s": _json_float(est.decoherence_time_s),
        "planck_time_s": t_pl,
        "C": c_factor,
    })
    return 0


def _cmd_trajectory(args) -> int:
    config = _load_config(args)
    out = _out_dir(args)
    record = run_trajectory(config, args.stream)
    header = {**config.header(), "stream_index": args.stream}
    record.write_csv(out / "trajectory.csv", header)
    record.write_json(out / "trajectory.json", header)
    _emit({
        "out": str(out),
        "n_steps": config.n_steps,
        "final_energy_mean": float(record.energy_mean[-1]),
        "final_energy_variance": float(record.energy_variance[-1]),
    })
    return 0


def _run_ensemble(args, with_master: bool):
    config = _load_config(args)
    out = _out_dir(args)
    summary = ens.run_ensemble(config, workers=args.workers,
                               retain=args.dump_trajectory or (),
                               final_projector_only=not with_master)
    dist = ens.compare_ensemble_to_master(summary) if with_master else None
    header = config.header()
    ens.write_summary_json(out / "summary.json", summary, header, dist)
    ens.write_ensemble_csv(out / "ensemble.csv", summary, header, dist)
    for k in args.dump_trajectory or []:
        ens.write_trajectory_csv(out / f"trajectory_{k}.csv", summary, k, header)
    return summary, dist, out


def _cmd_ensemble(args) -> int:
    summary, _, out = _run_ensemble(args, with_master=False)
    _emit({
        "out": str(out),
        "n_trajectories": summary.n_trajectories,
        "born_frequencies": summary.born_frequencies,
        "final_mean_energy_variance": float(summary.mean_energy_variance[-1]),
    })
    return 0


def _cmd_compare(args) -> int:
    summary, dist, out = _run_ensemble(args, with_master=True)
    _emit({
        "out": str(out),
        "n_trajectories": summary.n_trajectories,
        "max_trace_distance": float(np.max(dist)),
        "final_trace_distance": float(dist[-1]),
    })
    return 0


def _cmd_master(args) -> int:
    """The closed-form solution from the initial projector, made once, at
    every step time; each master.csv row is written as its chunk of states
    arrives, and the snapshot states are evaluated at their own times."""
    config = _load_config(args)
    out = _out_dir(args)
    rho0, n = qcore.pure_projector(config.initial_state), len(config.initial_state)
    solution = master_mod.exact_solution(rho0, config.hamiltonian, config.tau0)
    steps = range(config.n_steps + 1)
    snapshots = list(master_mod.exact_states(
        solution, n, config.dt, master_mod.snapshot_indices(len(steps))))
    header = config.header()
    master_mod.write_summary_csv(out / "master.csv", master_mod.exact_states(
        solution, n, config.dt, steps), header)
    master_mod.write_snapshots_json(out / "master_states.json", snapshots,
                                    header)
    trace, purity, offdiag = master_mod.state_scalars(snapshots[-1][1])
    _emit({"out": str(out), "n_steps": config.n_steps,
           "final_trace": float(trace), "final_purity": float(purity),
           "final_offdiag_abs": offdiag})
    return 0


def _cmd_spacetime_check(args) -> int:
    report = spacetime.equivalence_report(
        n_samples=args.samples, seed=args.seed, dt=args.dt,
        tolerance=args.tolerance)
    _emit(report)
    return 0 if report["passed"] else 2


def _cmd_noise_audit(args) -> int:
    dts = args.dt if args.dt else [1.0, 0.1, 0.001]
    stream = NoiseStream(args.seed, 0)
    rows = [moment_audit(dt, args.n, stream) for dt in dts]
    qcore.write_table(args.out, {}, list(rows[0]),
                      [list(row.values()) for row in rows])
    return 0


def _add_run_options(p, trajectories=True):
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--dt", type=float, default=None, help="override step size")
    p.add_argument("--t-final", dest="t_final", type=float, default=None,
                   help="override final time")
    p.add_argument("--out", default=None, help="output directory")
    if trajectories:
        p.add_argument("--trajectories", type=int, default=None,
                       help="override n_trajectories")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes, at most one per usable CPU; "
                            "where a CPU is spare, each worker's batch may "
                            "also fork one row helper process that steps half "
                            "its trajectories (neither changes results)")
        p.add_argument("--dump-trajectory", type=int, action="append",
                       metavar="K", help="also write trajectory_<K>.csv")


def build_parser() -> _Parser:
    parser = _Parser(prog="qsdsim",
                     description="Stochastic quantum-trajectory simulator")
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    sub.add_parser("constants", help="print physical constants and the Planck time")

    p = sub.add_parser("estimate", help="decoherence-rate calculator")
    p.add_argument("--delta-e", type=float, default=None,
                   help="energy gap between superposed branches [J]")
    p.add_argument("--mass", type=float, default=None, help="particle mass [kg]")
    p.add_argument("--v1", type=float, default=None, help="branch 1 speed [m/s]")
    p.add_argument("--v2", type=float, default=None, help="branch 2 speed [m/s]")
    p.add_argument("--delta-h", type=float, default=None,
                   help="branch height difference [m]")
    p.add_argument("--g", type=float, default=spacetime.STANDARD_GRAVITY,
                   help="gravitational acceleration [m/s^2]")
    p.add_argument("--tau0", type=float, default=None,
                   help="diffusion time constant [s] (default C * planck time)")
    p.add_argument("--C", type=float, default=1.0,
                   help="order-unity factor on the Planck time")

    p = sub.add_parser("trajectory", help="integrate a single trajectory")
    _add_run_options(p, trajectories=False)
    p.add_argument("--stream", type=int, default=0, help="noise stream index")

    p = sub.add_parser("ensemble", help="run a trajectory ensemble")
    _add_run_options(p)

    p = sub.add_parser("master", help="solve the master equation")
    _add_run_options(p, trajectories=False)

    p = sub.add_parser("compare", help="ensemble vs master-equation deviation")
    _add_run_options(p)

    p = sub.add_parser("spacetime-check",
                       help="fluctuating-time vs diffusion-step equivalence suite")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--dt", type=float, default=1e-10)
    p.add_argument("--tolerance", type=float, default=1e-12)

    p = sub.add_parser("noise-audit", help="empirical noise moment statistics")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=100_000, help="samples per dt")
    p.add_argument("--dt", type=float, action="append", default=None,
                   help="step size (repeatable)")
    p.add_argument("--out", default=None, help="CSV file (default stdout)")

    return parser


_COMMANDS = {
    "constants": _cmd_constants,
    "estimate": _cmd_estimate,
    "trajectory": _cmd_trajectory,
    "ensemble": _cmd_ensemble,
    "master": _cmd_master,
    "compare": _cmd_compare,
    "spacetime-check": _cmd_spacetime_check,
    "noise-audit": _cmd_noise_audit,
}


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"qsdsim: warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 1
    # only the printed form changes: a caller recording warnings still
    # receives them
    format_warning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return _COMMANDS[args.cmd](args)
    except OutputError as exc:
        sys.stderr.write(f"qsdsim: {exc}\n")
        return 1
    except (InvalidParameterError, ShapeError, OSError,
            json.JSONDecodeError) as exc:
        sys.stderr.write(f"qsdsim: invalid input: {exc}\n")
        return 1
    except DegenerateStateError as exc:
        sys.stderr.write(f"qsdsim: numerical failure: {exc}\n")
        return 2
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
