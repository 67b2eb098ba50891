"""Ensemble runs, ensemble-vs-master reconciliation, localization statistics.

The parent diagonalizes H once; trajectories are then integrated as
energy-eigenbasis amplitudes, where the PSD step is elementwise
(trajectory._EigenKernel), in fixed-size batches of 512, each trajectory
drawing from its own counter-based noise stream keyed by (master_seed,
trajectory_index).  Each batch reduces its trajectories at every record
time (sums of the eigenbasis projector, <H> and Var H, the spread of
Var H, the largest norm defect, winner counts), keeping per-trajectory
series only for the trajectories asked for.  The parent folds those
partial sums in batch-index order, so no array of all trajectories at all
record times is ever built.  Batches and fold order are fixed, so under
the determinism rule of the trajectory module a run's output is
bit-identical for any worker count.  The mean projector is rotated back
from the eigenbasis once per record time.  Peak memory is estimated
before the first batch starts, and a run that would not fit in physical
memory is refused.

Units: all integration happens in natural units (hbar = 1).  SI configs
are rescaled on load - the energy unit E0 is the largest |eigenvalue| of
the hamiltonian, times become t * E0 / hbar - which keeps Planck-scale
tau0 values finite instead of forcing 1e-44 s steps.  The conversion is
echoed in every output header.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import master as master_mod
from . import qcore, spacetime
from .errors import DegenerateStateError, InvalidParameterError, QsdError
from .noise import NoiseStream
from .trajectory import (TrajectoryRecord, _BatchSums, _EigenKernel,
                         _integrate_eigenbasis, batch_buffers, record_count,
                         record_steps)

CHUNK_SIZE = 512         # trajectories per batch; independent of worker count
MAX_RECORD_POINTS = 10_000
_STEP_TOL = 1e-9         # relative slack of t_final / dt about a whole number
_CONFIG_KEYS = frozenset({
    "units", "hamiltonian", "initial_state", "tau0_mode", "tau0", "C", "dt",
    "t_final", "n_trajectories", "master_seed", "record_stride"})


@dataclass(frozen=True)
class SimulationConfig:
    """Resolved, natural-unit (hbar = 1) description of an ensemble run;
    __post_init__ is the one place where a run's values are checked, and
    resolves a record_stride of None to max(1, ceil(n_steps /
    MAX_RECORD_POINTS)), which dataclasses.replace then keeps."""

    hamiltonian: np.ndarray
    initial_state: np.ndarray
    tau0: float
    dt: float
    t_final: float
    n_trajectories: int
    master_seed: int
    record_stride: int | None = None
    tau0_mode: str = "explicit"
    c_factor: float = 1.0
    units: str = "natural"
    energy_unit_j: float = 1.0
    time_unit_s: float = 1.0

    def __post_init__(self):
        h = qcore.as_operator(self.hamiltonian)
        try:
            psi = qcore.normalize(
                qcore.as_state(self.initial_state, normalized=False))
        except DegenerateStateError as exc:
            raise InvalidParameterError(f"initial_state: {exc}") from exc
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "initial_state", psi)
        if h.shape[0] != psi.shape[0]:
            raise InvalidParameterError(
                f"hamiltonian {h.shape} does not match state dim {psi.shape[0]}")
        for name in ("n_trajectories", "master_seed", "record_stride"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, qcore.whole(name, getattr(self, name)))
        if self.n_trajectories < 1:
            raise InvalidParameterError(
                f"n_trajectories must be >= 1, got {self.n_trajectories}")
        dt = qcore.positive("dt", self.dt)
        t_final = qcore.positive("t_final", self.t_final)
        if dt > t_final:
            raise InvalidParameterError(
                f"need dt <= t_final, got dt={dt}, t_final={t_final}")
        steps = t_final / dt
        if abs(steps - round(steps)) > _STEP_TOL * steps:
            raise InvalidParameterError(
                f"t_final must be a whole number of steps dt, got "
                f"t_final / dt = {steps!r}")
        qcore.positive("tau0", self.tau0)      # a diffusion run needs tau0 > 0
        qcore.positive("C", self.c_factor)
        if self.record_stride is None:
            object.__setattr__(self, "record_stride", max(
                1, math.ceil(self.n_steps / MAX_RECORD_POINTS)))
        if self.record_stride < 1:
            raise InvalidParameterError(
                f"record_stride must be >= 1, got {self.record_stride}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    def header(self) -> dict:
        """Unit-conversion echo placed at the top of every output file."""
        return {
            "units": self.units,
            "energy_unit_J": self.energy_unit_j,
            "time_unit_s": self.time_unit_s,
            "hbar_internal": 1.0,
            "tau0_mode": self.tau0_mode,
            "tau0_internal": self.tau0,
            "C": self.c_factor,
            "master_seed": self.master_seed,
        }


def config_from_dict(data: dict) -> SimulationConfig:
    """Build a run config from its JSON form, resolving units and tau0.

    Every malformed field - missing, of the wrong type or unparsable -
    raises InvalidParameterError here; SimulationConfig checks the values.
    """
    try:
        return _parse_config(data)
    except QsdError:
        raise
    except KeyError as exc:
        raise InvalidParameterError(f"config is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError(f"malformed config: {exc}") from exc


def _parse_config(data: dict) -> SimulationConfig:
    unknown = sorted(map(str, data.keys() - _CONFIG_KEYS))
    if unknown:
        raise InvalidParameterError(f"unknown config keys: {', '.join(unknown)}")
    units = data.get("units", "natural")
    if units not in ("natural", "SI"):
        raise InvalidParameterError(f"units must be 'natural' or 'SI', got {units!r}")
    h = qcore.operator_from_json(data["hamiltonian"])
    psi0 = qcore.state_from_json(data["initial_state"])
    tau0_mode = data.get("tau0_mode", "explicit")
    booleans = sorted(key for key, value in data.items() if isinstance(value, bool))
    if booleans:
        raise InvalidParameterError(f"{booleans[0]} is true or false, not a number")
    c_factor = float(data.get("C", 1.0))
    dt = float(data["dt"])
    t_final = float(data["t_final"])

    if tau0_mode == "explicit":
        if "tau0" not in data:
            raise InvalidParameterError("explicit tau0_mode requires a tau0 field")
        tau0 = float(data["tau0"])
    elif tau0_mode == "planck":
        if units != "SI":
            raise InvalidParameterError(
                "tau0_mode 'planck' needs SI units (the Planck time is an absolute scale)")
        tau0 = spacetime.fluctuation_time_constant(c_factor)
    else:
        raise InvalidParameterError(
            f"tau0_mode must be 'explicit' or 'planck', got {tau0_mode!r}")

    energy_unit_j = time_unit_s = 1.0
    if units == "SI":
        h = qcore.as_operator(h)
        scale = float(np.max(np.abs(np.linalg.eigvalsh(h))))
        e0 = scale if scale > 0.0 else 1.0
        h /= e0
        to_natural_time = e0 / spacetime.HBAR
        dt *= to_natural_time
        t_final *= to_natural_time
        tau0 *= to_natural_time
        energy_unit_j, time_unit_s = e0, spacetime.HBAR / e0
    return SimulationConfig(
        hamiltonian=h, initial_state=psi0, tau0=tau0, dt=dt,
        t_final=t_final, n_trajectories=data.get("n_trajectories", 1),
        master_seed=data.get("master_seed", 0),
        record_stride=data.get("record_stride"), tau0_mode=tau0_mode,
        c_factor=c_factor, units=units, energy_unit_j=energy_unit_j,
        time_unit_s=time_unit_s)


def load_config(path, overrides: dict | None = None) -> SimulationConfig:
    """Read a JSON config file; each entry of overrides that is not None
    replaces the file's field of that name, in the file's declared units."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidParameterError("config file must contain a JSON object")
    data.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    return config_from_dict(data)


@dataclass
class EnsembleSummary:
    """Ensemble reductions at shared record times, plus the trajectories
    the run was asked to retain."""

    times: np.ndarray                    # (T,)
    mean_projector: np.ndarray           # (T, n, n)
    mean_energy: np.ndarray              # (T,)
    mean_energy_variance: np.ndarray     # (T,)
    energy_variance_se: np.ndarray       # (T,) standard error of the above
    max_norm_drift: np.ndarray           # (T,) largest |norm defect| over all
    eigenvalues: np.ndarray              # (n,) ascending
    initial_populations: np.ndarray      # (n,) in the energy eigenbasis
    born_frequencies: np.ndarray         # (n,) terminal fractions per eigenstate
    terminal_variances: np.ndarray       # (M,) final Var H per trajectory
    trajectories: dict[int, TrajectoryRecord]   # retained index -> series
    config: SimulationConfig

    @property
    def n_trajectories(self) -> int:
        return self.config.n_trajectories


def _simulate_chunk(args) -> _BatchSums:
    """Integrate and reduce trajectories [start, start+count) as one batch.

    Runs in worker processes on energy-eigenbasis amplitudes.  By the
    trajectory module's determinism rule, chunk boundaries never leak into
    a trajectory's values, so trajectory k matches run_trajectory on
    stream k bit for bit.  `keep` holds the chunk-local rows whose series
    are retained.
    """
    kernel, c0, n_steps, stride, seed, start, count, keep = args
    streams = [NoiseStream(seed, start + j) for j in range(count)]
    return _integrate_eigenbasis(kernel, c0, streams, n_steps, stride, keep)


def run_trajectory(config: SimulationConfig, stream_index: int) -> TrajectoryRecord:
    """Trajectory `stream_index` of the config's ensemble, alone.

    A batch of one through _simulate_chunk from the config's initial state,
    so it replays the ensemble's trajectory with this index bit for bit
    and records <H>, Var H and the norm defect at its record times.  A run
    that would not fit in physical memory is refused before it starts.
    """
    _check_memory(config, rows=1, n_chunks=1, pool_size=1, n_retained=1)
    kernel = _EigenKernel(config.hamiltonian, config.dt, config.tau0)
    c0 = kernel.vecs.conj().T @ config.initial_state
    return _simulate_chunk((kernel, c0, config.n_steps,
                            config.record_stride, config.master_seed,
                            stream_index, 1, [0])).records[0]


def _fold(parts) -> _BatchSums:
    """Merge chunk reductions in the order given: sums add, the Var H
    spreads combine by Chan's pairwise formula, norm defects take the max,
    per-trajectory values concatenate."""
    total, terminal, records = None, [], []
    for part in parts:
        terminal.append(part.terminal_variance)
        records += part.records
        if total is None:
            total = part
            continue
        n_a, n_b = total.count, part.count
        delta = part.variance_sum / n_b - total.variance_sum / n_a
        total.variance_m2 += part.variance_m2 + delta ** 2 * (n_a * n_b / (n_a + n_b))
        total.count = n_a + n_b
        total.projector_sum += part.projector_sum
        total.energy_sum += part.energy_sum
        total.variance_sum += part.variance_sum
        np.maximum(total.max_norm_drift, part.max_norm_drift,
                   out=total.max_norm_drift)
        total.winners += part.winners
    total.terminal_variance = np.concatenate(terminal)
    total.records = records
    return total


def _check_memory(config: SimulationConfig, rows: int, n_chunks: int,
                  pool_size: int, n_retained: int):
    """Refuse a run whose estimated peak memory exceeds physical memory.

    The estimate assumes every chunk's reductions are waiting in the parent
    at once, next to the running totals and the mean projector with its
    temporaries; each worker holds one chunk's reductions and the working
    buffers of a batch of `rows` rows (trajectory.batch_buffers).
    """
    n = config.hamiltonian.shape[0]
    stride = config.record_stride
    t = record_count(config.n_steps, stride)
    sums = t * (16 * n * n + 5 * 8)             # projector sum, 4 sums, times
    parent = (n_chunks + 3) * sums + n_retained * t * 4 * 8 \
        + 8 * config.n_trajectories
    worker = sums + batch_buffers(rows, n, config.n_steps, stride,
                                  min(rows, n_retained))[2]
    qcore.check_memory(parent + pool_size * worker,
                       f"run of {t} record points at n={n}",
                       "raise record_stride or lower n_trajectories")


def run_ensemble(config: SimulationConfig, workers: int = 1,
                 retain=()) -> EnsembleSummary:
    """Run n_trajectories independent diffusion trajectories and reduce them.

    Deterministic for a given master_seed regardless of `workers`: stream
    index = trajectory index, batch boundaries are fixed, and batch
    reductions are folded in index order.  Per-trajectory series are kept
    only for the indices in `retain` (summary.trajectories).  Any failing
    trajectory aborts the run, reporting its index (dropping it silently
    would bias the ensemble mean).
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    m = config.n_trajectories
    retain = sorted({int(k) for k in retain})
    outside = [k for k in retain if not 0 <= k < m]
    if outside:
        raise InvalidParameterError(
            f"trajectory index {outside[0]} outside 0..{m - 1}")
    n_chunks = -(-m // CHUNK_SIZE)
    pool_size = min(workers, n_chunks, os.cpu_count() or 1)
    _check_memory(config, min(CHUNK_SIZE, m), n_chunks, pool_size, len(retain))

    kernel = _EigenKernel(config.hamiltonian, config.dt, config.tau0)
    vecs = kernel.vecs
    c0 = vecs.conj().T @ config.initial_state   # <v_k | psi0>
    stride = config.record_stride
    jobs = [(kernel, c0, config.n_steps, stride, config.master_seed, start,
             min(CHUNK_SIZE, m - start),
             [k - start for k in retain if start <= k < start + CHUNK_SIZE])
            for start in range(0, m, CHUNK_SIZE)]
    if pool_size == 1:
        total = _fold(map(_simulate_chunk, jobs))
    else:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            total = _fold(pool.map(_simulate_chunk, jobs))

    se = np.sqrt(total.variance_m2 / ((m - 1) * m)) if m > 1 \
        else np.zeros_like(total.variance_m2)
    return EnsembleSummary(
        times=config.dt * record_steps(config.n_steps, stride).astype(float),
        mean_projector=vecs @ (total.projector_sum / m) @ vecs.conj().T,
        mean_energy=total.energy_sum / m,
        mean_energy_variance=total.variance_sum / m,
        energy_variance_se=se,
        max_norm_drift=total.max_norm_drift,
        eigenvalues=kernel.energies,
        initial_populations=np.abs(c0) ** 2,
        born_frequencies=total.winners / m,
        terminal_variances=total.terminal_variance,
        trajectories=dict(zip(retain, total.records)),
        config=config,
    )


def compare_ensemble_to_master(summary: EnsembleSummary) -> np.ndarray:
    """Trace distance between the ensemble mean projector and the master
    solution of the run's own config at every record time.

    The master solution is the closed form of master.psd_master_exact,
    evaluated at the record times only.  Expected to scale as
    O(1/sqrt(M)) Monte Carlo error plus O(dt) discretization bias.
    """
    config = summary.config
    rhos = master_mod.psd_master_exact(
        qcore.pure_projector(config.initial_state), config.hamiltonian,
        config.tau0, summary.times)
    return np.array([qcore.trace_distance(p, rho)
                     for p, rho in zip(summary.mean_projector, rhos)])


@dataclass
class LocalizationReport:
    """Energy-localization diagnostics for a finished ensemble."""

    applicable: bool
    degenerate_levels: list
    monotonicity_max_z: float           # largest rise of mean Var H, in SEs
    monotone_within_tolerance: bool
    born_within_tolerance: bool         # within 4-sigma binomial bounds
    terminal_variance_max: float
    localized_fraction: float           # Var H <= 1e-6 (E_max - E_min)^2


def localization_stats(summary: EnsembleSummary) -> LocalizationReport:
    """Monotonicity of mean Var H, terminal variances, and Born frequencies.

    With a degenerate spectrum the localization statistics are flagged
    inapplicable across the degenerate subspace (trajectories cannot
    select between degenerate levels).
    """
    w = summary.eigenvalues
    scale = max(float(np.max(np.abs(w))), 1.0)
    degenerate = [
        (i, i + 1) for i in range(len(w) - 1)
        if abs(w[i + 1] - w[i]) <= 1e-12 * scale
    ]
    threshold = 1e-6 * float(w[-1] - w[0]) ** 2

    m = summary.n_trajectories
    se = summary.energy_variance_se
    diffs = np.diff(summary.mean_energy_variance)
    se_diff = np.sqrt(se[1:] ** 2 + se[:-1] ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se_diff > 0, diffs / se_diff, np.where(diffs > 0, np.inf, 0.0))
    max_z = float(np.max(z, initial=0.0))

    halfwidths = 4.0 * np.sqrt(summary.initial_populations
                               * (1.0 - summary.initial_populations) / m)
    born_dev = np.abs(summary.born_frequencies - summary.initial_populations)
    born_ok = bool(np.all(born_dev <= halfwidths + 1e-15))

    term = summary.terminal_variances
    return LocalizationReport(
        applicable=not degenerate,
        degenerate_levels=degenerate,
        monotonicity_max_z=max_z,
        monotone_within_tolerance=bool(max_z <= 4.0),
        born_within_tolerance=born_ok,
        terminal_variance_max=float(term.max()),
        localized_fraction=float(np.mean(term <= threshold)),
    )


# ---------------------------------------------------------------------------
# Output files

def write_ensemble_csv(path, summary: EnsembleSummary, header: dict, dist):
    """Scalar series: t, e_mean, e_var_mean, trace_dist (nan without the
    trace distances `dist` to the master solution)."""
    if dist is None:
        dist = np.full(len(summary.times), np.nan)
    qcore.write_table(path, header, ["t", "e_mean", "e_var_mean", "trace_dist"],
                      zip(summary.times, summary.mean_energy,
                          summary.mean_energy_variance, dist))


def write_trajectory_csv(path, summary: EnsembleSummary, index: int,
                         header: dict):
    """Per-trajectory series for one retained trajectory of the ensemble."""
    if index not in summary.trajectories:
        raise InvalidParameterError(
            f"trajectory {index} was not retained by this run")
    summary.trajectories[index].write_csv(
        path, {**header, "trajectory_index": index})


def write_summary_json(path, summary: EnsembleSummary, header: dict, dist):
    """The reductions, the final mean projector and, unless dist is None,
    the trace distances to the master solution."""
    qcore.write_json(path, {
        "header": header,
        "n_trajectories": summary.n_trajectories,
        "dt": summary.config.dt,
        "t_final": summary.config.t_final,
        "times": summary.times.tolist(),
        "mean_energy": summary.mean_energy.tolist(),
        "mean_energy_variance": summary.mean_energy_variance.tolist(),
        "eigenvalues": summary.eigenvalues.tolist(),
        "initial_populations": summary.initial_populations.tolist(),
        "born_frequencies": summary.born_frequencies.tolist(),
        "final_mean_projector": qcore.operator_to_json(summary.mean_projector[-1]),
        "trace_distance_to_master": None if dist is None else dist.tolist(),
        "terminal_variance_max": float(summary.terminal_variances.max()),
        "terminal_variance_median": float(np.median(summary.terminal_variances)),
    })
