"""Random stopping rules on finite scenario trees, with everything exact.

The package models a finite filtered probability space as a scenario tree,
the four ways to describe a (possibly randomized) stopping rule on it, and
the machinery those descriptions support: exact equivalence via detailed
distributions, lossless conversion between representations, optimal
stopping, two-player stopping games, and a seeded Monte-Carlo layer that
cross-checks the exact computations by actually running the rules.
"""

from .errors import (
    ConsistencyFailure,
    FormatError,
    NotAStoppingMeasure,
    NotZeroSum,
    ProbabilitySumError,
    SpaceMismatch,
    StopwrightError,
    StructureError,
    ValidationError,
    ZeroProbabilityError,
)
from .space import (
    INFINITY,
    AdaptedProcess,
    Event,
    FilteredSpace,
    Time,
    adapted_process,
    as_fraction,
    build_space,
    check_process,
    constant_process,
)
from .stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomStoppingTime,
    RandomizedStoppingTime,
    StoppingMeasure,
    Violation,
    behavior,
    densities,
    detailed_distribution,
    enumerate_pure_stopping_times,
    equivalent,
    mixed,
    pure,
    randomized,
    stopping_measure,
    validate,
)
from .convert import (
    convert,
    is_stopping_measure,
    measure_to_randomized,
    repair_densities,
)
__version__ = "0.1.0"

#: The layers loaded on first use (PEP 562), by each public name they define.  The core above
#: is all that ``import stopwright``, reading a rule or a space, and every exact computation on
#: rules alone load: ``payoffs`` comes with a problem or a game, ``games`` with a game, and
#: ``montecarlo``, with numpy, only with sampling.
_LAZY = {
    name: layer
    for layer, names in (
        (
            "payoffs",
            "DistinguishResult SnellResult check_epsilon_optimal distinguish payoff snell_value"
            " witness_problem",
        ),
        (
            "games",
            "BOTH COALITIONS ONLY_1 ONLY_2 JointStoppingMeasure StageSolution StoppingGame"
            " ZeroSumResult auxiliary_problem best_response_value check_epsilon_equilibrium"
            " game_equivalent game_payoff is_zero_sum joint_detailed_distribution"
            " solve_stage_game stopping_game zero_sum_value",
        ),
        (
            "montecarlo",
            "EmpiricalDistribution empirical_detailed_distribution empirical_game_payoff"
            " empirical_joint_distribution",
        ),
    )
    for name in names.split()
}

#: What ``from stopwright import *`` binds: every public name and layer but the Monte-Carlo
#: ones, which would load numpy.
__all__ = [
    *(name for name in globals() if name[0] != "_"),
    *(name for name, layer in _LAZY.items() if layer != "montecarlo"),
    "payoffs",
    "games",
]


def __getattr__(name: str):
    import importlib

    layer = _LAZY.get(name, name)  # a lazy name's layer, or the name of a layer itself
    if layer not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{layer}", __name__)
    globals().update((n, getattr(module, n)) for n, where in _LAZY.items() if where == layer)
    return module if name == layer else globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
