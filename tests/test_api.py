"""The package's public surface: the names `from qsdsim import *` gives,
the module attributes the benchmark harness patches or calls, and the one
place that writes files."""

import ast
import dataclasses
import importlib
import inspect
from functools import reduce
from pathlib import Path

import pytest

import qsdsim

# The public API, pinned: adding or dropping an export is a deliberate
# change to this list.
PUBLIC = set("""
    CODATA DecoherenceEstimate DegenerateStateError EnsembleSummary
    IntegrationFailureError InvalidParameterError LocalizationReport
    NoiseStream NormCompletion PhysicalConstants QsdError ShapeError
    SimulationConfig TrajectoryRecord
    align_global_phase analytic_offdiagonal as_density as_operator as_state
    compare_ensemble_to_master config_from_dict decoherence_rate
    delta_e_from_height delta_e_from_velocities equivalence_report
    expectation fluctuating_time_step fluctuation_time_constant
    gauge_transform integrate_master ito_norm_defect
    lindblad_from_hamiltonian lindblad_rhs load_config localization_stats
    norm_completion norm_defect_samples normalize planck_time
    psd_master_exact psd_master_rhs psd_step pure_projector qsd_step
    run_ensemble run_trajectory sample_dxi sample_dxi_block trace_distance
    variance
""".split())

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


def test_every_export_resolves():
    assert len(qsdsim.__all__) == len(set(qsdsim.__all__))
    assert [name for name in qsdsim.__all__ if not hasattr(qsdsim, name)] == []


def test_exports_are_the_pinned_api():
    assert set(qsdsim.__all__) == PUBLIC


@pytest.mark.parametrize("module, name", HARNESS,
                         ids=[f"{m}.{n}" for m, n in HARNESS])
def test_harness_names_resolve(module, name):
    owner = importlib.import_module(module)
    assert callable(reduce(getattr, name.split("."), owner))


def test_no_export_takes_hbar():
    # the package works at hbar = 1; only PhysicalConstants carries an SI hbar
    takes = []
    for name in qsdsim.__all__:
        obj = getattr(qsdsim, name)
        if name == "PhysicalConstants" or not callable(obj) \
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
            or name.endswith((".write_text", ".write_bytes", ".tofile")):
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
    # which write through qcore._whole
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
    assert found == {("qcore", "write_json", "json.dump"),
                     ("qcore", "_whole", "open")}
