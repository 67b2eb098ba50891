"""Ensemble runs and ensemble-vs-master reconciliation.

The parent diagonalizes H once; trajectories are then integrated as
energy-eigenbasis amplitudes, where the PSD step is elementwise
(trajectory._EigenKernel), each trajectory drawing from its own
counter-based noise stream keyed by (master_seed, trajectory_index).

The chunk is the unit of reduction: CHUNK_SIZE consecutive trajectories,
fixed whatever the worker count.  Each chunk reduces its trajectories at
every record time (sums of the eigenbasis projector, <H> and Var H, the
largest norm defect, winner counts), keeping per-trajectory series only
for the trajectories asked for.  The parent folds those partial sums in
chunk-index order, so no array of all trajectories at all record times is
ever built.  The batch is the unit of stepping: a job steps a run of
consecutive chunks as one batch, as many as BATCH_AMPLITUDES allows but
no more than keeps every worker busy, which spares NumPy per-call
overhead at small n.  Chunks and fold order are fixed, and the trajectory
module's determinism rule keeps a chunk's reductions the same in any
batch, so a run's output is bit-identical for any worker count and any
job width.  The mean projector is rotated back from the eigenbasis once
per record time.  One runner (_run) serves run_ensemble and run_trajectory,
whose trajectory is a one-row job: it sizes the pool, decides whether a
CPU is spare for noise helpers, and refuses a run whose estimated peak
memory (a worker's is trajectory.batch_plan's) exceeds physical memory.

Units: all integration happens in natural units (hbar = 1).  SI configs
are rescaled on load - the energy unit E0 is the largest |eigenvalue| of
the hamiltonian, times become t * E0 / hbar - which keeps Planck-scale
tau0 values finite instead of forcing 1e-44 s steps.  The conversion is
echoed in every output header.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import master as master_mod
from . import qcore, spacetime
from .errors import DegenerateStateError, InvalidParameterError, QsdError
from .noise import NoiseStream
from .trajectory import (TrajectoryRecord, _BatchSums, _EigenKernel,
                         _integrate_eigenbasis, batch_plan, record_count,
                         record_steps, reduction_bytes)

CHUNK_SIZE = 512         # trajectories per reduction, for any worker count
BATCH_AMPLITUDES = 8192  # rows x n a job steps at once, if above one chunk
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
    energy_unit_j: float = 1.0     # joules per energy unit; 1.0 if natural

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
        for name, allowed in (("units", ("natural", "SI")),
                              ("tau0_mode", ("explicit", "planck"))):
            if getattr(self, name) not in allowed:
                raise InvalidParameterError(
                    f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        for name in ("n_trajectories", "master_seed", "record_stride"):
            if name != "record_stride" or self.record_stride is not None:
                object.__setattr__(self, name, qcore.whole(name, getattr(self, name)))
        if self.n_trajectories < 1:
            raise InvalidParameterError(
                f"n_trajectories must be >= 1, got {self.n_trajectories}")
        for name in ("tau0", "dt", "t_final", "c_factor", "energy_unit_j"):
            object.__setattr__(self, name, qcore.positive(name, getattr(self, name)))
        if self.units == "natural" and (self.energy_unit_j != 1.0
                                        or self.tau0_mode == "planck"):
            raise InvalidParameterError(   # the Planck time is an SI scale
                f"natural units need energy_unit_j 1.0 and an explicit tau0, got "
                f"{self.energy_unit_j} and tau0_mode {self.tau0_mode!r}")
        if self.tau0_mode == "planck" and not math.isclose(
                self.tau0, self.energy_unit_j / spacetime.HBAR
                * spacetime.fluctuation_time_constant(self.c_factor), rel_tol=1e-12):
            raise InvalidParameterError(
                f"tau0_mode 'planck' needs tau0 = C * planck time, got {self.tau0!r}")
        if self.dt > self.t_final:
            raise InvalidParameterError(
                f"need dt <= t_final, got dt={self.dt}, t_final={self.t_final}")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > _STEP_TOL * steps:
            raise InvalidParameterError(
                f"t_final must be a whole number of steps dt, got "
                f"t_final / dt = {steps!r}")
        if self.record_stride is None:
            object.__setattr__(self, "record_stride", max(
                1, math.ceil(self.n_steps / MAX_RECORD_POINTS)))
        if self.record_stride < 1:
            raise InvalidParameterError(
                f"record_stride must be >= 1, got {self.record_stride}")

    @property
    def time_unit_s(self) -> float:
        return spacetime.HBAR / self.energy_unit_j if self.units == "SI" else 1.0

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

    Decodes the JSON and rescales SI input to natural units; a malformed
    field raises InvalidParameterError, SimulationConfig checks the values.
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
    tau0_mode = data.get("tau0_mode", "explicit")
    h = qcore.operator_from_json(data["hamiltonian"])
    psi0 = qcore.state_from_json(data["initial_state"])
    c_factor = qcore.positive("C", data.get("C", 1.0))
    dt = qcore.positive("dt", data["dt"])
    t_final = qcore.positive("t_final", data["t_final"])
    tau0 = (spacetime.fluctuation_time_constant(c_factor) if tau0_mode == "planck"
            else qcore.positive("tau0", data["tau0"]))

    energy_unit_j = 1.0
    if units == "SI":
        h = qcore.as_operator(h)
        energy_unit_j = float(np.max(np.abs(np.linalg.eigvalsh(h)))) or 1.0
        h /= energy_unit_j
        to_natural_time = energy_unit_j / spacetime.HBAR
        dt, t_final, tau0 = (x * to_natural_time for x in (dt, t_final, tau0))
    return SimulationConfig(
        hamiltonian=h, initial_state=psi0, tau0=tau0, dt=dt,
        t_final=t_final, n_trajectories=data.get("n_trajectories", 1),
        master_seed=data.get("master_seed", 0),
        record_stride=data.get("record_stride"), tau0_mode=tau0_mode,
        c_factor=c_factor, units=units, energy_unit_j=energy_unit_j)


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


def _simulate_job(args) -> list[_BatchSums]:
    """Integrate trajectories `rows` (a range) as one batch and reduce them
    a chunk at a time, returning one _BatchSums per chunk.

    Runs in worker processes on energy-eigenbasis amplitudes.  By the
    trajectory module's determinism rule, batch and chunk boundaries never
    leak into a trajectory's values, so trajectory k matches run_trajectory
    on stream k bit for bit.  `keep` holds the batch rows whose series are
    retained, and `spare_cpu` whether a forked process may draw the noise
    while the batch steps, which does not change a bit.
    """
    kernel, c0, n_steps, stride, seed, rows, keep, spare_cpu = args
    # Freeing a 1 MiB block raises glibc malloc's dynamic thresholds: blocks
    # under 1 MiB then come from the heap, and up to 2 MiB freed at its top
    # is kept instead of being returned to the system.  Without it, whether
    # the step's 128 KiB temporaries (128 rows at n = 64) were returned and
    # faulted back in at every step (+70 % run time) depended on where
    # earlier allocations had left the heap's top.  Other allocators just
    # allocate and free it.
    np.empty(1 << 17)
    streams = [NoiseStream(seed, k) for k in rows]
    return _integrate_eigenbasis(kernel, c0, streams, n_steps, stride, keep,
                                 CHUNK_SIZE, spare_cpu)


def _jobs(m: int, n: int, pool_size: int) -> list[range]:
    """Trajectory ranges of the jobs of an M = m run at dimension n: runs of
    consecutive chunks, as many as BATCH_AMPLITUDES holds (one at least)
    and at most ceil(chunks / pool_size), spread evenly over the jobs."""
    n_chunks = -(-m // CHUNK_SIZE)
    width = min(max(1, BATCH_AMPLITUDES // (CHUNK_SIZE * n)),
                -(-n_chunks // pool_size))
    n_jobs = -(-n_chunks // width)
    edges = [min(m, CHUNK_SIZE * (j * n_chunks // n_jobs))
             for j in range(n_jobs + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


def run_trajectory(config: SimulationConfig, stream_index: int) -> TrajectoryRecord:
    """Trajectory `stream_index` of the config's ensemble, alone.

    A one-row job of the ensemble's runner (_run), so it replays the
    ensemble's trajectory with this index bit for bit, recording <H>, Var H
    and the norm defect at its record times.
    """
    k = qcore.whole("stream_index", stream_index)
    return _run(config, range(k, k + 1), 1, [k])[2].records[0]


def _fold(jobs) -> _BatchSums:
    """Merge the chunk reductions of jobs in the order given: sums add,
    max_norm_drift takes the max, winners add, per-trajectory values
    concatenate."""
    total, terminal, records = None, [], []
    for part in itertools.chain.from_iterable(jobs):
        terminal.append(part.terminal_variance)
        records += part.records
        if total is None:
            total = part
            continue
        total.projector_sum += part.projector_sum
        total.energy_sum += part.energy_sum
        total.variance_sum += part.variance_sum
        np.maximum(total.max_norm_drift, part.max_norm_drift,
                   out=total.max_norm_drift)
        total.winners += part.winners
    total.terminal_variance = np.concatenate(terminal)
    total.records = records
    return total


def _check_memory(config: SimulationConfig, jobs, pool_size: int,
                  n_retained: int, spare_cpu: bool):
    """Refuse a run of `jobs` (trajectory ranges) whose estimated peak
    memory exceeds physical memory.

    With a pool, the estimate assumes every chunk's reductions are waiting
    in the parent at once; without one, the parent folds a job's
    reductions before it runs the next, so it holds those of the widest
    job.  Next to them are the running totals, the mean projector with
    its temporaries, the retained series and a final Var H per trajectory
    of the jobs.  Each worker holds what trajectory.batch_plan states for
    the widest job: its chunks' reductions, its working buffers and, if
    the batch forks a noise helper, the pages the helper comes to hold.
    """
    n = config.hamiltonian.shape[0]
    t = record_count(config.n_steps, config.record_stride)
    widest = max(len(rows) for rows in jobs)
    held = (sum(-(-len(rows) // CHUNK_SIZE) for rows in jobs) if pool_size > 1
            else -(-widest // CHUNK_SIZE))
    parent = (held + 3) * reduction_bytes(n, t) + n_retained * t * 4 * 8 \
        + 8 * sum(map(len, jobs))
    worker = batch_plan(widest, n, config.n_steps, config.record_stride,
                        min(widest, n_retained), CHUNK_SIZE, spare_cpu).bytes
    qcore.check_memory(parent + pool_size * worker,
                       f"run of {t} record points at n={n}",
                       "raise record_stride or lower n_trajectories")


def _run(config: SimulationConfig, rows: range, workers: int, retain):
    """Run trajectories `rows` of the config's ensemble, keeping the series
    of the sorted indices in retain; returns the kernel, the eigenbasis c0
    and the fold of every chunk's reductions.  The pool has at most
    `workers`, this process's usable CPUs (qcore.usable_cpus) and the jobs;
    a CPU is spare for each job's noise helper if there are twice as many
    CPUs as workers.  A run that would not fit is refused before it starts.
    """
    cpus = qcore.usable_cpus()
    pool_size = min(workers, cpus)
    jobs = [rows[j.start:j.stop]
            for j in _jobs(len(rows), config.hamiltonian.shape[0], pool_size)]
    pool_size = min(pool_size, len(jobs))
    spare_cpu = cpus >= 2 * pool_size
    _check_memory(config, jobs, pool_size, len(retain), spare_cpu)
    kernel = _EigenKernel(config.hamiltonian, config.dt, config.tau0)
    c0 = kernel.vecs.conj().T @ config.initial_state   # <v_k | psi0>
    args = [(kernel, c0, config.n_steps, config.record_stride,
             config.master_seed, job, [k - job.start for k in retain if k in job],
             spare_cpu) for job in jobs]
    if pool_size == 1:
        return kernel, c0, _fold(map(_simulate_job, args))
    # concurrent.futures takes 5-8 ms to import: only a pool pays it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return kernel, c0, _fold(pool.map(_simulate_job, args))


def run_ensemble(config: SimulationConfig, workers: int = 1,
                 retain=()) -> EnsembleSummary:
    """Run n_trajectories independent diffusion trajectories and reduce them.

    Deterministic for a given master_seed regardless of `workers`: stream
    index = trajectory index, chunk boundaries are fixed, and chunk
    reductions are folded in index order, however many chunks a job steps
    as one batch.  Per-trajectory series are kept only for the indices in
    `retain` (summary.trajectories).  Any failing trajectory aborts the
    run, reporting its index (dropping it silently would bias the ensemble
    mean): the failure of the lowest failing chunk, as with one chunk per
    job.  The pool and the noise helpers follow the usable CPUs (_run),
    which changes no bit either.
    """
    workers = qcore.whole("workers", workers)
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    m = config.n_trajectories
    retain = sorted({qcore.whole("retain", k) for k in retain})
    outside = [k for k in retain if not 0 <= k < m]
    if outside:
        raise InvalidParameterError(
            f"trajectory index {outside[0]} outside 0..{m - 1}")
    kernel, c0, total = _run(config, range(m), workers, retain)
    vecs = kernel.vecs
    return EnsembleSummary(
        times=config.dt * record_steps(config.n_steps,
                                       config.record_stride).astype(float),
        mean_projector=vecs @ (total.projector_sum / m) @ vecs.conj().T,
        mean_energy=total.energy_sum / m,
        mean_energy_variance=total.variance_sum / m,
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
    return qcore.trace_distance(summary.mean_projector, rhos)


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
