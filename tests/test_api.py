"""The package's public surface: the names `from qsdsim import *` gives."""

import qsdsim

# The public API, pinned: adding or dropping an export is a deliberate
# change to this list.
PUBLIC = set("""
    CODATA DecoherenceEstimate DegenerateStateError EnsembleSummary
    IntegrationFailureError InvalidParameterError LocalizationReport
    MasterRunConfig NoiseStream NormCompletion PhysicalConstants QsdError
    ShapeError SimulationConfig TrajectoryConfig TrajectoryRecord
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


def test_every_export_resolves():
    assert len(qsdsim.__all__) == len(set(qsdsim.__all__))
    assert [name for name in qsdsim.__all__ if not hasattr(qsdsim, name)] == []


def test_exports_are_the_pinned_api():
    assert set(qsdsim.__all__) == PUBLIC
