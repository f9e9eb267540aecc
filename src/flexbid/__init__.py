"""Robust bidding of energy and symmetric reserve capacity for flexible systems.

The package builds, solves, and certifies adjustable robust linear
programs that size the reserve capacity a power- and energy-constrained
system can offer while honoring its schedule adjustments on the day-ahead
and intra-day markets under every admissible activation signal.
"""

from .dynamics import SystemParams, discretize, epsilon_bound
from .market_time import IndexCounts, Timescales, derive_counts, validate_timescales
from .policy import (AffinePolicy, PolicyStructure, build_averaging, load_policy,
                     realized_schedules, reference_affine_map, save_policy)
from .reference_map import (ReferenceProfile, build_M, build_R, energy_content,
                            reference_from_baseline)
from .robust_lp import (EXPECTED_PROFIT, MAX_CAPACITY, ObjectiveSpec, PriceData,
                        RobustProgram, Solution, assemble, build_market_matrices,
                        required_ramp, solve)
from .solvers import write_mps
from .verify_sim import (ActivationSignal, VerificationReport, average_signal,
                         check_feasibility, gen_signal, load_signal, save_signal,
                         simulate_state)

__version__ = "0.1.0"

__all__ = [
    "ActivationSignal", "AffinePolicy", "EXPECTED_PROFIT", "IndexCounts", "MAX_CAPACITY",
    "ObjectiveSpec", "PolicyStructure", "PriceData", "ReferenceProfile", "RobustProgram",
    "Solution", "SystemParams", "Timescales", "VerificationReport", "assemble",
    "average_signal", "build_M", "build_R", "build_averaging", "build_market_matrices",
    "check_feasibility", "derive_counts", "discretize", "energy_content", "epsilon_bound",
    "gen_signal", "load_policy", "load_signal", "realized_schedules", "reference_affine_map",
    "reference_from_baseline", "required_ramp", "save_policy", "save_signal",
    "simulate_state", "solve", "validate_timescales", "write_mps",
]
