"""netid: identify a single module in a dynamic network from node signals.

The package covers the full workflow: transfer functions and network models
(netid.tf, netid.model), closed-loop simulation through the network's
state-space realization (netid.model, netid.sim), the exact input-output
map and the stability verdict (netid.iomap), the classical direct
prediction-error method (netid.direct), the local two-step method that needs
only a small submatrix of the network response (netid.local), and a
reproducible experiments harness with a CLI (netid.experiments, netid.cli).
"""

from .tf import FreqGrid, RationalTF
from .model import (ExcitationSpec, NetworkFormatError, NetworkModel,
                    SignalRecord, build_case_study, load_network,
                    save_network)
from .sim import SimulationDiverged, simulate, simulate_inputs
from .iomap import FreqResponseMatrix, is_internally_stable, true_T
from .direct import (DirectEstimate, DirectModelStructure, build_regressor,
                     estimate_direct)
from .local import (LocalSolveResult, MethodChoice, TSubmatrixEstimate,
                    estimate_T_entries, fit_parametric, plan_experiment,
                    plan_experiment_for_model, solve_sink_side,
                    solve_source_side)
from .experiments import (ModuleEstimate, ResultTable, RunResult, Scenario,
                          ScenarioFormatError, ScenarioResult, emit_results,
                          load_scenarios, read_results, run_local_pipeline,
                          run_monte_carlo)

__version__ = "0.1.0"

__all__ = [
    "ExcitationSpec", "DirectEstimate", "DirectModelStructure", "FreqGrid",
    "FreqResponseMatrix", "LocalSolveResult", "MethodChoice",
    "ModuleEstimate", "NetworkFormatError", "NetworkModel", "RationalTF",
    "ResultTable", "RunResult", "Scenario",
    "ScenarioFormatError", "ScenarioResult", "SignalRecord",
    "SimulationDiverged", "TSubmatrixEstimate", "build_case_study",
    "build_regressor", "emit_results", "estimate_T_entries",
    "estimate_direct", "fit_parametric", "is_internally_stable",
    "load_network", "load_scenarios", "plan_experiment",
    "plan_experiment_for_model", "read_results", "run_local_pipeline",
    "run_monte_carlo", "save_network", "simulate", "simulate_inputs",
    "solve_sink_side", "solve_source_side", "true_T",
]
