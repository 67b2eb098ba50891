"""Stochastic quantum-trajectory simulation.

Integrates norm-preserving Ito diffusion equations for pure states,
cross-validates trajectory ensembles against the closed-form solution
of their master equation, verifies the fluctuating-time derivation of the
hamiltonian-driven diffusion, and computes Planck-scale decoherence
estimates for matter-interferometry scenarios.
"""

from .ensemble import (EnsembleSummary, SimulationConfig,
                       compare_ensemble_to_master, config_from_dict,
                       load_config, run_ensemble, run_trajectory)
from .errors import (DegenerateStateError, IntegrationFailureError,
                     InvalidParameterError, QsdError, ShapeError)
from .master import (analytic_offdiagonal, integrate_master, lindblad_rhs,
                     psd_master_exact, psd_master_rhs)
from .noise import NoiseStream, sample_dxi, sample_dxi_block
from .qcore import (align_global_phase, as_density, as_operator, as_state,
                    normalize, pure_projector, trace_distance)
from .spacetime import (DecoherenceEstimate, NormCompletion,
                        decoherence_rate, delta_e_from_height,
                        delta_e_from_velocities, equivalence_report,
                        fluctuating_time_step, fluctuation_time_constant,
                        ito_norm_defect, norm_completion, planck_time)
from .trajectory import (TrajectoryRecord, gauge_transform,
                         lindblad_from_hamiltonian, norm_defect_samples,
                         psd_step, qsd_step)

__version__ = "0.1.0"

__all__ = [
    "DecoherenceEstimate",
    "DegenerateStateError",
    "EnsembleSummary",
    "IntegrationFailureError",
    "InvalidParameterError",
    "NoiseStream",
    "NormCompletion",
    "QsdError",
    "ShapeError",
    "SimulationConfig",
    "TrajectoryRecord",
    "align_global_phase",
    "analytic_offdiagonal",
    "as_density",
    "as_operator",
    "as_state",
    "compare_ensemble_to_master",
    "config_from_dict",
    "decoherence_rate",
    "delta_e_from_height",
    "delta_e_from_velocities",
    "equivalence_report",
    "fluctuating_time_step",
    "fluctuation_time_constant",
    "gauge_transform",
    "integrate_master",
    "ito_norm_defect",
    "lindblad_from_hamiltonian",
    "lindblad_rhs",
    "load_config",
    "norm_completion",
    "norm_defect_samples",
    "normalize",
    "planck_time",
    "psd_master_exact",
    "psd_master_rhs",
    "psd_step",
    "pure_projector",
    "qsd_step",
    "run_ensemble",
    "run_trajectory",
    "sample_dxi",
    "sample_dxi_block",
    "trace_distance",
]
