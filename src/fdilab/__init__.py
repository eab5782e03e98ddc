"""Desk-scale power-grid security laboratory.

DC weighted-least-squares state estimation, chi-square and largest
normalized residual bad-data detection, stealth additive measurement
attacks confined to controlled meter sets, and DC optimal power flow with
locational marginal prices to quantify what such an attack earns.
"""

from .attack import (
    AttackVector,
    attack_from_c,
    random_constrained_attack,
    targeted_attack,
    verify_stealth,
)
from .detection import (
    DetectionMethod,
    DetectionReport,
    chi_square_quantile,
    chi_square_test,
    gaussian_quantile,
    lnr_test,
    residual_covariance,
)
from .estimation import (
    EstimationResult,
    WeightModel,
    simulate_measurements,
    wls_estimate,
)
from .market import (
    DispatchCase,
    DispatchResult,
    Generator,
    Load,
    arbitrage_profit,
    perceived_case_from_attack,
    solve_dc_opf,
)
from .network import (
    Branch,
    MeasurementMatrix,
    Meter,
    MeterConfig,
    NetworkModel,
    build_h_matrix,
)
from .scenario import (
    MonteCarloSummary,
    Scenario,
    ScenarioReport,
    parse_scenario,
    run_monte_carlo,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AttackVector",
    "Branch",
    "DetectionMethod",
    "DetectionReport",
    "DispatchCase",
    "DispatchResult",
    "EstimationResult",
    "Generator",
    "Load",
    "MeasurementMatrix",
    "Meter",
    "MeterConfig",
    "MonteCarloSummary",
    "NetworkModel",
    "Scenario",
    "ScenarioReport",
    "WeightModel",
    "arbitrage_profit",
    "attack_from_c",
    "build_h_matrix",
    "chi_square_quantile",
    "chi_square_test",
    "gaussian_quantile",
    "lnr_test",
    "parse_scenario",
    "perceived_case_from_attack",
    "random_constrained_attack",
    "residual_covariance",
    "run_monte_carlo",
    "run_scenario",
    "simulate_measurements",
    "solve_dc_opf",
    "targeted_attack",
    "verify_stealth",
    "wls_estimate",
]
