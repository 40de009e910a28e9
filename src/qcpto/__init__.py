"""Quality-aware cooperative-perception task offloading: simulator and solvers."""

from .baselines import solve_cpto, solve_go
from .geometry import (EpochRasters, GridSpec, QualityMatrix,
                       build_quality_matrix, detected_awareness, fov_triangle,
                       rasterize_triangle)
from .metrics import EpochReport, RunReport, epoch_metrics, run_aggregate
from .model import Assignment, Roi, Turn, VehicleState, Worker
from .predict import FilterBank, classify_turn, estimate_roi, run_predictor
from .qmkp import (QmkpInstance, Solution, check_feasible, enumerate_optimal,
                   evaluate_objective, instance_to_json, random_instance,
                   repair_deadline, repair_min_pair)
from .solve_exact import solve_exact
from .solve_heur import fix_and_complete, greedy_bin_packing, solve_heuristic
from .trace import Trace, load_trace, synth_intersection

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
