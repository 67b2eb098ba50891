"""The four benchmark workloads: seeded config generation and output checks.

Each workload turns a seed into one qsdsim run configuration and the CLI
arguments that run it.  The program sees only the generated config file.
`check_output` verifies a finished run's output directory against
oracles of the benchmark's own (closed-form master solution, binomial
Born bounds, an independent replay of the first trajectory steps), so a
fast but wrong program does not pass.
"""

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("qubit_compare", "dense64_compare", "record_ensemble",
             "single_trajectory")

# Mixed into the seed so that each workload draws independent inputs.
_KEYS = {name: i for i, name in enumerate(WORKLOADS)}

# Workers of the untraced, timed executions.  Only record_ensemble uses
# the pool; the determinism gate reruns it with one worker.
WORKERS = {"qubit_compare": 1, "dense64_compare": 1, "record_ensemble": 2,
           "single_trajectory": None}

# Replayed steps of single_trajectory; one record stride, so the replay
# ends on the first recorded row after t = 0.
_REPLAY_STEPS = 100


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _KEYS[name]])


def _random_hermitian(rng, n: int) -> np.ndarray:
    """Dense hermitian matrix from the GUE, scaled so max |E| = 1."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (a + a.conj().T)
    return h / float(np.max(np.abs(np.linalg.eigvalsh(h))))


def _random_unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_state(rng, n: int) -> np.ndarray:
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def _op_json(a) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _state_json(psi) -> list:
    return [[float(z.real), float(z.imag)] for z in psi]


def _op_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def make_config(name: str, seed: int) -> dict:
    """Run configuration of workload `name` for `seed` (JSON-ready dict)."""
    rng = _rng(name, seed)
    if name == "qubit_compare":
        # the README config; only master_seed follows the workload seed
        h = np.diag([0.5, -0.5])
        psi = np.array([1.0, 1.0]) / math.sqrt(2.0)
        run = dict(tau0=0.4, dt=2.5e-3, t_final=5.0, n_trajectories=2000,
                   record_stride=20)
    elif name == "dense64_compare":
        h = _random_hermitian(rng, 64)
        psi = _random_state(rng, 64)
        run = dict(tau0=0.4, dt=5e-3, t_final=5.0, n_trajectories=128,
                   record_stride=50)
    elif name == "record_ensemble":
        # spectrum {-1, -1/3, 1/3, 1}: the smallest gap 2/3 decoheres at
        # tau0 (2/3)^2 / 2 = 4/9 per unit time, so t_final = 22 is about
        # ten decoherence times and the trajectories localize
        u = _random_unitary(rng, 4)
        h = u @ np.diag([-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0]) @ u.conj().T
        h = 0.5 * (h + h.conj().T)
        # populations kept >= 0.1 so that every level has a sharp Born bound
        pops = 0.1 + 0.6 * rng.dirichlet(np.ones(4))
        phases = np.exp(2j * math.pi * rng.random(4))
        psi = u @ (np.sqrt(pops) * phases)
        run = dict(tau0=2.0, dt=5e-3, t_final=22.0, n_trajectories=1024,
                   record_stride=1)
    elif name == "single_trajectory":
        h = _random_hermitian(rng, 8)
        psi = _random_state(rng, 8)
        run = dict(tau0=0.4, dt=1e-3, t_final=60.0, n_trajectories=1,
                   record_stride=100)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {
        "units": "natural",
        "hamiltonian": _op_json(h),
        "initial_state": _state_json(psi),
        "tau0_mode": "explicit",
        **run,
        "master_seed": int(rng.integers(2 ** 32)),
    }


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, indent=1) + "\n").encode()


def n_steps(config: dict) -> int:
    return max(int(round(config["t_final"] / config["dt"])), 1)


def record_count(config: dict) -> int:
    """Record points per trajectory: every stride-th step plus the last."""
    steps = n_steps(config)
    return len(range(0, steps + 1, config["record_stride"])) \
        + (steps % config["record_stride"] != 0)


def cli_args(name: str, config_path, out_dir, workers=None) -> list:
    """Arguments of `qsdsim` for one execution of the workload."""
    if name == "single_trajectory":
        return ["trajectory", "--config", str(config_path), "--out", str(out_dir)]
    command = "ensemble" if name == "record_ensemble" else "compare"
    args = [command, "--config", str(config_path), "--out", str(out_dir),
            "--workers", str(workers or WORKERS[name])]
    if name == "record_ensemble":
        args += ["--dump-trajectory", "0"]
    return args


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.

class _NonFinite(ValueError):
    pass


def _reject_constant(token):
    raise _NonFinite(token)


def _load_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _read_csv(path: Path):
    """Column names and float rows of a '#'-headed qsdsim CSV."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return names, rows.reshape(-1, len(names))


def _check_files(out: Path, expected, nan_column=None) -> list:
    """Expected files present, readable and finite.

    nan_column names a CSV column that must be all nan instead: qsdsim
    writes trace_dist that way when no master equation ran.
    """
    problems = []
    present = sorted(p.name for p in out.iterdir())
    if present != sorted(expected):
        problems.append(f"output files {present}, expected {sorted(expected)}")
    for fname in present:
        path = out / fname
        try:
            if fname.endswith(".json"):
                _load_json(path)
                continue
            names, rows = _read_csv(path)
        except _NonFinite as exc:
            problems.append(f"{fname}: non-finite value {exc}")
            continue
        except (ValueError, IndexError) as exc:
            problems.append(f"{fname}: unreadable ({exc})")
            continue
        for j, col in enumerate(names):
            if col == nan_column:
                if not np.isnan(rows[:, j]).all():
                    problems.append(f"{fname}: {col} should be nan")
            elif not np.isfinite(rows[:, j]).all():
                problems.append(f"{fname}: non-finite {col}")
    return problems


def exact_master(h, psi0, tau0: float, t: float) -> np.ndarray:
    """Closed-form PSD master solution at time t (hbar = 1).

    In the energy eigenbasis rho_jk(t) = rho_jk(0) exp(-i w t - tau0 w^2 t / 2)
    with w = E_j - E_k; independent of the program's RK4 integrator.
    """
    e, v = np.linalg.eigh(h)
    c = v.conj().T @ psi0
    w = e[:, None] - e[None, :]
    rho = np.outer(c, c.conj()) * np.exp(-1j * w * t - 0.5 * tau0 * w * w * t)
    return v @ rho @ v.conj().T


def _trace_distance(a, b) -> float:
    d = a - b
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T)))))


def trace_distance_tolerance(m: int, n: int) -> float:
    """Bound on the ensemble-vs-master trace distance for M trajectories.

    The mean of M independent projectors misses rho by E||D||_F^2 <= 1/M,
    and the trace distance is at most sqrt(n)/2 ||D||_F; the factor 4
    covers the maximum over record times.
    """
    return min(1.0, 2.0 * math.sqrt(n / m))


def _inputs(config: dict):
    h = _op_from_json(config["hamiltonian"])
    h = 0.5 * (h + h.conj().T)
    psi = _op_from_json(config["initial_state"])
    return h, psi / np.linalg.norm(psi)


def check_compare(summary: dict, config: dict) -> list:
    """Ensemble mean projector against the master equation."""
    problems = []
    h, psi = _inputs(config)
    n, m = h.shape[0], config["n_trajectories"]
    dist = np.asarray(summary["trace_distance_to_master"], dtype=float)
    if dist.size != record_count(config):
        return [f"{dist.size} trace distances, expected {record_count(config)}"]
    tol = trace_distance_tolerance(m, n)
    if not dist.max() <= tol:
        problems.append(f"trace distance to master {dist.max():.4g} > {tol:.4g}"
                        f" (M={m}, n={n})")
    rho_hat = _op_from_json(summary["final_mean_projector"])
    rho = exact_master(h, psi, config["tau0"], summary["times"][-1])
    # the reported distance must be the distance of the written projector
    # to the master solution (RK4 error is far below 1e-6 at these steps)
    final = _trace_distance(rho_hat, rho)
    if not abs(final - dist[-1]) <= 1e-6:
        problems.append(f"final trace distance {dist[-1]:.6g} but the written "
                        f"mean projector is {final:.6g} from the exact master")
    # Monte Carlo scale of the final projector: E||D||_F^2 = (1 - tr rho^2)/M,
    # plus 0.01 for the weak-order-1 step bias
    hs = float(np.linalg.norm(rho_hat - rho))
    hs_tol = 4.0 * math.sqrt(max(1.0 - np.trace(rho @ rho).real, 0.0) / m) + 0.01
    if not hs <= hs_tol:
        problems.append(f"final mean projector {hs:.4g} (Frobenius) from the "
                        f"exact master, bound {hs_tol:.4g}")
    if abs(np.trace(rho_hat) - 1.0) > 1e-9:
        problems.append("final mean projector does not have unit trace")
    return problems


def check_born(summary: dict, config: dict) -> list:
    """Born frequencies within 4 binomial sigma of the initial populations."""
    h, psi = _inputs(config)
    m = config["n_trajectories"]
    _, v = np.linalg.eigh(h)
    pops = np.abs(v.conj().T @ psi) ** 2
    born = np.asarray(summary["born_frequencies"], dtype=float)
    half = 4.0 * np.sqrt(pops * (1.0 - pops) / m)
    problems = []
    if born.shape != pops.shape or not np.all(np.abs(born - pops) <= half + 1e-15):
        problems.append(f"born frequencies {np.round(born, 4).tolist()} outside "
                        f"{np.round(pops, 4).tolist()} +- 4 sigma")
    if not np.allclose(summary["initial_populations"], pops, atol=1e-9):
        problems.append("initial_populations disagree with the config")
    return problems


def replay_first_record(config: dict, stream: int = 0):
    """<H> and Var H after _REPLAY_STEPS steps, integrated here from scratch.

    Uses the documented noise law (Philox keyed by (master_seed, stream),
    two normals per step) and the Euler-Maruyama PSD step with
    renormalization, without calling qsdsim.
    """
    h, psi = _inputs(config)
    tau0, dt = config["tau0"], config["dt"]
    key = np.array([config["master_seed"] & (2 ** 64 - 1), stream], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=key)).standard_normal(
        (_REPLAY_STEPS, 2))
    dxi = math.sqrt(0.5 * dt) * (g[:, 0] + 1j * g[:, 1])
    for k in range(_REPLAY_STEPS):
        mean = np.vdot(psi, h @ psi).real
        hd = h @ psi - mean * psi
        hd2 = h @ hd - mean * hd
        new = psi + (-1j * dt) * hd - (0.5 * tau0 * dt) * hd2 \
            + math.sqrt(tau0) * dxi[k] * hd
        psi = new / np.linalg.norm(new)
    hpsi = h @ psi
    mean = np.vdot(psi, hpsi).real
    return mean, max(np.vdot(hpsi, hpsi).real - mean * mean, 0.0)


def check_trajectory(out: Path, config: dict) -> list:
    problems = []
    names, rows = _read_csv(out / "trajectory.csv")
    col = {c: j for j, c in enumerate(names)}
    h, _ = _inputs(config)
    e = np.linalg.eigvalsh(h)
    stride, dt = config["record_stride"], config["dt"]
    if rows.shape[0] != record_count(config):
        problems.append(f"{rows.shape[0]} trajectory rows, "
                        f"expected {record_count(config)}")
        return problems
    times = rows[:, col["t"]]
    expected_t = dt * np.minimum(stride * np.arange(rows.shape[0]), n_steps(config))
    if not np.allclose(times, expected_t, rtol=1e-12, atol=0.0):
        problems.append("trajectory record times are off the stride grid")
    mean, var = rows[:, col["e_mean"]], rows[:, col["e_var"]]
    if np.any(var < 0.0) or np.any(mean < e[0] - 1e-9) or np.any(mean > e[-1] + 1e-9):
        problems.append("<H> outside the spectrum or Var H negative")
    ref_mean, ref_var = replay_first_record(config)
    if abs(mean[1] - ref_mean) > 1e-9 or abs(var[1] - ref_var) > 1e-9:
        problems.append(f"step {stride}: <H> {mean[1]!r}, Var {var[1]!r}; "
                        f"independent replay gives {ref_mean!r}, {ref_var!r}")
    final = _op_from_json(_load_json(out / "trajectory.json")["final_state"])
    if abs(np.linalg.norm(final) - 1.0) > 1e-9:
        problems.append("final state is not normalized")
    return problems


EXPECTED_FILES = {
    "qubit_compare": ("summary.json", "ensemble.csv"),
    "dense64_compare": ("summary.json", "ensemble.csv"),
    "record_ensemble": ("summary.json", "ensemble.csv", "trajectory_0.csv"),
    "single_trajectory": ("trajectory.csv", "trajectory.json"),
}


def check_output(name: str, config: dict, out) -> list:
    """All correctness checks of one execution's output directory."""
    out = Path(out)
    problems = _check_files(out, EXPECTED_FILES[name],
                            "trace_dist" if name == "record_ensemble" else None)
    if problems:
        return problems
    if name == "single_trajectory":
        return check_trajectory(out, config)
    summary = _load_json(out / "summary.json")
    if summary["n_trajectories"] != config["n_trajectories"]:
        problems.append("summary n_trajectories differs from the config")
    if name == "record_ensemble":
        return problems + check_born(summary, config)
    return problems + check_compare(summary, config)
