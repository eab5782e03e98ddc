"""Desk-scale power-grid security laboratory.

DC weighted-least-squares state estimation, chi-square and largest
normalized residual bad-data detection, stealth additive measurement
attacks confined to controlled meter sets, and DC optimal power flow with
locational marginal prices to quantify what such an attack earns.

``import fdilab`` runs none of its modules. Each public name, and each
module as ``fdilab.caseio`` and the like, is imported on first access
(PEP 562) and then kept in the package, so parsing a case and building H
and weights load ``errors``, ``network``, ``caseio`` and ``estimation``
alone, and never ``scenario``, ``attack``, ``detection`` or ``market``.
"""

__version__ = "0.1.0"

# Each public name's module.
_HOME = {
    name: module
    for module, names in {
        "attack": ("AttackVector", "attack_from_c", "random_constrained_attack", "targeted_attack", "verify_stealth"),
        "detection": (
            "DetectionMethod",
            "DetectionReport",
            "chi_square_quantile",
            "chi_square_test",
            "gaussian_quantile",
            "lnr_test",
            "residual_covariance",
        ),
        "estimation": ("EstimationResult", "WeightModel", "simulate_measurements", "wls_estimate"),
        "market": (
            "DispatchCase",
            "DispatchResult",
            "Generator",
            "arbitrage_profit",
            "perceived_case_from_attack",
            "solve_dc_opf",
        ),
        "network": ("Branch", "MeasurementMatrix", "Meter", "MeterConfig", "NetworkModel", "build_h_matrix"),
        "scenario": (
            "MonteCarloSummary",
            "Scenario",
            "ScenarioReport",
            "parse_scenario",
            "run_monte_carlo",
            "run_scenario",
        ),
    }.items()
    for name in names
}
_MODULES = frozenset({"attack", "caseio", "detection", "errors", "estimation", "market", "network", "scenario"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = name if name in _MODULES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime reports (importlib.import_module's is not),
    # and which binds the module in this namespace
    __import__(f"{__name__}.{module}")
    value = globals()[module] if module == name else getattr(globals()[module], name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return list(__all__)
