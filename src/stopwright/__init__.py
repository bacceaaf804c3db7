"""Random stopping rules on finite scenario trees, with everything exact.

The package models a finite filtered probability space as a scenario tree,
the four ways to describe a (possibly randomized) stopping rule on it, and
the machinery those descriptions support: exact equivalence via detailed
distributions, lossless conversion between representations, optimal
stopping, two-player stopping games, and a seeded Monte-Carlo layer that
cross-checks the exact computations by actually running the rules.
"""

import importlib

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
    behavior_to_randomized,
    convert,
    is_stopping_measure,
    measure_to_randomized,
    randomized_to_behavior,
    randomized_to_mixed,
    repair_densities,
)
from .payoffs import (
    DistinguishResult,
    SnellResult,
    check_epsilon_optimal,
    distinguish,
    payoff,
    snell_value,
    witness_problem,
)
from .games import (
    BOTH,
    COALITIONS,
    ONLY_1,
    ONLY_2,
    JointStoppingMeasure,
    StageSolution,
    StoppingGame,
    ZeroSumResult,
    auxiliary_problem,
    best_response_value,
    check_epsilon_equilibrium,
    game_equivalent,
    game_payoff,
    is_zero_sum,
    joint_detailed_distribution,
    solve_stage_game,
    stopping_game,
    zero_sum_value,
)

__version__ = "0.1.0"

#: The Monte-Carlo layer needs numpy, so it is imported on first use (PEP 562):
#: ``import stopwright`` and every exact computation load no numpy.
_MONTECARLO_NAMES = frozenset(
    (
        "EmpiricalDistribution",
        "EmpiricalJointDistribution",
        "empirical_detailed_distribution",
        "empirical_game_payoff",
        "empirical_joint_distribution",
    )
)


def __getattr__(name: str):
    if name not in _MONTECARLO_NAMES and name != "montecarlo":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    montecarlo = importlib.import_module(".montecarlo", __name__)
    globals().update((n, getattr(montecarlo, n)) for n in _MONTECARLO_NAMES)
    return globals()[name]
