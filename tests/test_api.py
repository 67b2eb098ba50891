"""The package's public surface: the names `from qsdsim import *` gives,
the module attributes the benchmark harness patches or calls, the one
place that writes files, and the modules an import does not load."""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import qsdsim

# The public API, pinned: adding or dropping an export is a deliberate
# change to this list.
PUBLIC = set("""
    DecoherenceEstimate DegenerateStateError EnsembleSummary
    IntegrationFailureError InvalidParameterError
    NoiseStream NormCompletion QsdError ShapeError
    SimulationConfig TrajectoryRecord
    align_global_phase analytic_offdiagonal as_density as_operator as_state
    compare_ensemble_to_master config_from_dict decoherence_rate
    delta_e_from_height delta_e_from_velocities equivalence_report
    fluctuating_time_step fluctuation_time_constant
    gauge_transform integrate_master ito_norm_defect
    lindblad_from_hamiltonian lindblad_rhs load_config
    norm_completion norm_defect_samples normalize planck_time
    psd_master_exact psd_master_rhs psd_step pure_projector qsd_step
    run_ensemble run_trajectory sample_dxi sample_dxi_block trace_distance
""".split())

# SimulationConfig's fields and the keys of its header(), in order: a new
# run value or header entry is a deliberate change to these lists.
CONFIG_FIELDS = """hamiltonian initial_state tau0 dt t_final n_trajectories
    master_seed record_stride tau0_mode c_factor units energy_unit_j""".split()
HEADER_KEYS = """units energy_unit_J time_unit_s hbar_internal tau0_mode
    tau0_internal C master_seed""".split()

# (module, attribute) pairs that perfbench/tracing.py wraps and
# perfbench/child.py calls, looked up where those scripts look them up;
# dropping one breaks `perfbench/run.py --trace 1`.
HARNESS = [
    ("qsdsim.cli", "main"),
    ("qsdsim.cli", "run_trajectory"),
    ("qsdsim.ensemble", "load_config"),
    ("qsdsim.ensemble", "config_from_dict"),
    ("qsdsim.ensemble", "run_ensemble"),
    ("qsdsim.ensemble", "compare_ensemble_to_master"),
    ("qsdsim.ensemble", "write_summary_json"),
    ("qsdsim.ensemble", "write_ensemble_csv"),
    ("qsdsim.ensemble", "write_trajectory_csv"),
    ("qsdsim.master", "integrate_master"),
    ("qsdsim.master", "psd_master_rhs"),
    ("qsdsim.noise", "NoiseStream.standard_normal"),
    ("qsdsim.qcore", "trace_distance"),
    ("qsdsim.trajectory", "sample_dxi"),
    ("qsdsim.trajectory", "psd_increment"),
    ("qsdsim.trajectory", "TrajectoryRecord.write_csv"),
    ("qsdsim.trajectory", "TrajectoryRecord.write_json"),
]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_every_export_resolves():
    assert len(qsdsim.__all__) == len(set(qsdsim.__all__))
    assert [name for name in qsdsim.__all__ if not hasattr(qsdsim, name)] == []


def test_exports_are_the_pinned_api():
    assert set(qsdsim.__all__) == PUBLIC


def test_config_fields_and_header_are_pinned():
    assert [field.name for field in dataclasses.fields(
        qsdsim.SimulationConfig)] == CONFIG_FIELDS
    config = qsdsim.SimulationConfig(
        hamiltonian=[[1, 0], [0, -1]], initial_state=[1, 0], tau0=1.0,
        dt=1.0, t_final=1.0, n_trajectories=1, master_seed=0)
    assert list(config.header()) == HEADER_KEYS


@pytest.mark.parametrize("module, name", HARNESS,
                         ids=[f"{m}.{n}" for m, n in HARNESS])
def test_harness_names_resolve(module, name):
    owner = importlib.import_module(module)
    assert callable(reduce(getattr, name.split("."), owner))


def test_no_export_takes_hbar():
    # the package works at hbar = 1; only spacetime.HBAR is an SI hbar
    takes = []
    for name in qsdsim.__all__:
        obj = getattr(qsdsim, name)
        if not callable(obj) \
                or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        params = set(inspect.signature(obj).parameters)
        if dataclasses.is_dataclass(obj):
            params |= {f.name for f in dataclasses.fields(obj)}
        if "hbar" in params:
            takes.append(name)
    assert takes == []


def _writes_a_file(call: ast.Call) -> bool:
    name = ast.unparse(call.func)
    if name in ("json.dump", "csv.writer") or name.startswith("np.save") \
            or name.endswith((".write_text", ".write_bytes", ".tofile",
                              ".writelines")):
        return True
    if name != "open" and not name.endswith(".open"):
        return False
    args = call.args[1:] if name == "open" else call.args   # Path.open(mode)
    mode = next(iter(args), None) or next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return mode is not None and not (isinstance(mode, ast.Constant)
                                     and set(mode.value) <= set("rbt"))


def test_only_qcore_writes_files():
    # the on-disk format lives in qcore.write_table and qcore.write_json,
    # which stream their lines or pieces (writelines) into qcore._whole
    found = set()

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and _writes_a_file(node):
            found.add((module, where, ast.unparse(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(qsdsim.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert found == {("qcore", "write_json", "fh.writelines"),
                     ("qcore", "write_table", "fh.writelines"),
                     ("qcore", "_whole", "open")}


def test_import_loads_no_process_modules():
    # a pool, a row helper's shared buffer and its kill, and the noise
    # streams' numpy.random (a split batch loads it before its fork) are
    # imported by the runs that use them, which spares every other run 1.5
    # to 14 ms
    src = str(Path(qsdsim.__file__).resolve().parents[1])
    code = ("import sys, qsdsim, qsdsim.cli; print(' '.join(m for m in ("
            "'concurrent.futures', 'mmap', 'signal', 'multiprocessing', "
            "'numpy.random') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          check=True)
    assert proc.stdout.split() == []
