"""Adversarial load balancing on parallel links with linear latencies.

Solvers for equalized-latency and minimum-cost flows, best responses
and pure equilibria of the zero-sum game between an adversarial and a
cost-minimizing router, the scaled-optimum strategy, cost-of-malice
reports, and an independent brute-force bracket of the game value.

`oracle` and `families` load on the first use of one of their names:
only `malice verify` runs the oracle and only `malice gen` a family, and
every other CLI process would compile both for nothing.
"""

from .errors import (
    CertificateFailure,
    DegenerateInstance,
    DimensionMismatch,
    EmptyInstance,
    GridTooLarge,
    InvalidAlpha,
    InvalidFlow,
    InvalidM,
    InvalidMass,
    InvalidRange,
    MaliceError,
    NegativeCoefficient,
    NonFiniteCoefficient,
    NonPositiveM,
    SubnormalSlope,
    ValidationError,
)
from .flows import (
    WaterLevel,
    flow_cost,
    induced_optimum,
    system_optimum,
    wardrop_flow,
    waterfill,
    waterfill_rows,
)
from .game import (
    BestResponseResult,
    SweepRow,
    check_mal_br,
    check_soc_br,
    com_report,
    com_sweep,
    evasive_response,
    mal_best_response,
    pure_equilibrium,
    scale_strategy,
    soc_best_response,
)
from .model import (
    ComReport,
    EquilibriumCertificate,
    Flow,
    Instance,
    Profile,
    TOLERANCES,
    cost,
    emit_instance,
    instance_digest,
    parse_instance,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponseResult",
    "CertificateFailure",
    "ComReport",
    "DegenerateInstance",
    "DimensionMismatch",
    "EmptyInstance",
    "EquilibriumCertificate",
    "Flow",
    "GridSpec",
    "GridTooLarge",
    "Instance",
    "InvalidAlpha",
    "InvalidFlow",
    "InvalidM",
    "InvalidMass",
    "InvalidRange",
    "MaliceError",
    "NegativeCoefficient",
    "NonFiniteCoefficient",
    "NonPositiveM",
    "Profile",
    "SubnormalSlope",
    "SweepRow",
    "TOLERANCES",
    "ValidationError",
    "WaterLevel",
    "check_mal_br",
    "check_soc_br",
    "com_report",
    "com_sweep",
    "cost",
    "emit_instance",
    "evasive_response",
    "flow_cost",
    "induced_optimum",
    "instance_digest",
    "mal_best_response",
    "mal_soc_value",
    "minimax_gap",
    "network",
    "network_demo",
    "parse_instance",
    "pigou",
    "pure_equilibrium",
    "random_instance",
    "scale_strategy",
    "simplex_grid",
    "soc_best_response",
    "soc_mal_value",
    "system_optimum",
    "tight",
    "validate",
    "wardrop_flow",
    "waterfill",
    "waterfill_rows",
]

_LAZY = {  # name -> the module that defines it, imported on first use (PEP 562)
    **dict.fromkeys(["GridSpec", "mal_soc_value", "minimax_gap", "simplex_grid", "soc_mal_value"], "oracle"),
    **dict.fromkeys(["network", "network_demo", "pigou", "random_instance", "tight"], "families"),
}


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # kept, so that later reads are plain lookups
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
