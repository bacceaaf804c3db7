"""Monte-Carlo execution of stopping rules from explicit external randomness.

This is the package's independent cross-check: rules are *run*, sample by
sample, from uniform draws, and the resulting frequencies are compared
against the exact tables computed elsewhere.  Nothing here reuses the
exact layer's arithmetic beyond reading the rule's parameters and the parts
its check builds (for a randomized rule, the cumulative stop masses its sum
check adds up), and for a game the integer tables its exact calls share.

Reproducibility contract
------------------------
Sampling is chunked: chunk ``i`` covers samples ``[i*CHUNK_SIZE, ...)`` and
draws from ``numpy.random.default_rng((seed, i))`` (PCG64 seeded through
``SeedSequence``).  Within a chunk the draw order is fixed: outcome
uniforms first, then the rule's stop draws (for two players, three
generators spawned from the chunk's SeedSequence in the order outcome,
player 1, player 2).  Totals are sums of per-chunk counts, so any split of
whole chunks across workers reproduces the single-worker result bit for
bit, and identical seeds always give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .space import INFINITY, FilteredSpace, Table, Time
from .stopping import (
    BehaviorStoppingTime,
    PureStoppingTime,
    RandomStoppingTime,
    RandomizedStoppingTime,
    check,
)
from .games import StoppingGame, game_tables

CHUNK_SIZE = 4096


def sample_stop_time(
    eta: RandomStoppingTime, space: FilteredSpace, atom: str, uniforms: Iterable[float]
) -> Time:
    """Run one realization of the rule at ``atom`` from explicit uniform draws.

    Pure rules consume no draws; randomized and mixed rules consume one;
    behavior rules consume one per period until they stop (at most T).
    Draws are compared against exact rationals, so thresholds are hit
    exactly.  Draws lie in [0, 1): a hazard stops only on a draw strictly
    below it, and a cumulative threshold selects the first time whose
    positive cumulative mass reaches the draw, so a draw of 0 never
    realizes a stop with zero mass.
    """
    check(eta, space)
    draws = iter(uniforms)
    if isinstance(eta, PureStoppingTime):
        return eta.stop[atom]
    if isinstance(eta, RandomizedStoppingTime):
        r = next(draws)
        cumulative = Fraction(0)
        for n in range(1, space.horizon + 1):
            cumulative += eta.rho[n][space.block_of(n, atom)]
            if cumulative > 0 and cumulative >= r:
                return n
        return INFINITY
    if isinstance(eta, BehaviorStoppingTime):
        for n in range(1, space.horizon + 1):
            r = next(draws)
            if r < eta.beta[n][space.block_of(n, atom)]:
                return n
        return INFINITY
    r = next(draws)
    for k in range(1, len(eta.breakpoints)):
        if eta.breakpoints[k] >= r:
            return eta.sections[k - 1].stop[atom]
    return eta.sections[-1].stop[atom]


# -- vectorized chunk sampling -------------------------------------------------


def _atom_cumprobs(space: FilteredSpace) -> np.ndarray:
    c = np.cumsum([float(space.prob[a]) for a in space.atoms])
    c[-1] = 1.0
    return c


def _first_true(mask: np.ndarray, never: int) -> np.ndarray:
    """Per row, the column of the first True, else ``never``."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), never)


def _stop_columns(eta: RandomStoppingTime, space: FilteredSpace):
    """The rule's sampler: ``columns(rng, atom_idx)`` draws one realized stop per sample.

    Columns 0..T-1 are times 1..T and column T is "never".  The rule is
    checked here, and its float tables are built once, from its own
    per-block parameters as its check gathered them (a randomized rule's
    cumulative masses come from the check's spent pass).  Each call of the
    sampler only draws and looks up.
    """
    T = space.horizon
    paths = np.array(space.paths).reshape(len(space.atoms), T)
    parts = check(eta, space)

    def columns(stops) -> list:
        """Per atom, the column of its stop block, T if it has none."""
        return [T if i is None else space.depth[i] - 1 for i in stops]

    if isinstance(eta, RandomizedStoppingTime):
        _, den, spent = parts
        cum = np.array([c / den for c in spent])[paths]

        def threshold(rng, atom_idx):
            r = rng.random(len(atom_idx))
            rows = cum[atom_idx]
            return _first_true((rows > 0) & (rows >= r[:, None]), T)

        return threshold
    if isinstance(eta, PureStoppingTime):
        table = np.array(columns(parts))
        return lambda rng, atom_idx: table[atom_idx]
    if isinstance(eta, BehaviorStoppingTime):
        hazard = np.array([float(h) for h in parts])[paths]

        def hazards(rng, atom_idx):
            draws = rng.random((len(atom_idx), T))
            return _first_true(draws < hazard[atom_idx], T)

        return hazards
    # mixed: one draw selects the section, the section decides per atom
    cuts = np.array([float(r) for r in eta.breakpoints[1:]])
    section_cols = np.array([columns(stops) for stops in parts[0]])

    def sections(rng, atom_idx):
        k = np.searchsorted(cuts, rng.random(len(atom_idx)), side="left")
        return section_cols[k, atom_idx]

    return sections


def _bincount(index: tuple, shape: tuple) -> np.ndarray:
    """Counts of the index tuples, as an int64 array of ``shape``."""
    flat = np.ravel_multi_index(index, shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape)))
    return counts.astype(np.int64, copy=False).reshape(shape)


def _detailed_counter(eta: RandomStoppingTime, space: FilteredSpace):
    """``count(size, seed, chunk_index)`` -> one chunk's counts; tables built once."""
    cumprobs = _atom_cumprobs(space)
    columns = _stop_columns(eta, space)
    shape = (len(space.atoms), space.horizon + 1)

    def count(size: int, seed: int, chunk_index: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        atom_idx = np.searchsorted(cumprobs, rng.random(size), side="left")
        return _bincount((atom_idx, columns(rng, atom_idx)), shape)

    return count


def _joint_counter(eta1: RandomStoppingTime, eta2: RandomStoppingTime, space: FilteredSpace):
    """``count(size, seed, chunk_index)`` -> one chunk's joint counts; tables built once."""
    cumprobs = _atom_cumprobs(space)
    columns1 = _stop_columns(eta1, space)
    columns2 = _stop_columns(eta2, space)
    shape = (len(space.atoms), space.horizon + 1, space.horizon + 1)

    def count(size: int, seed: int, chunk_index: int) -> np.ndarray:
        root = np.random.SeedSequence((seed, chunk_index))
        rng_omega, rng1, rng2 = (np.random.default_rng(s) for s in root.spawn(3))
        atom_idx = np.searchsorted(cumprobs, rng_omega.random(size), side="left")
        cols1 = columns1(rng1, atom_idx)
        cols2 = columns2(rng2, atom_idx)
        return _bincount((atom_idx, cols1, cols2), shape)

    return count


def detailed_counts_chunk(
    eta: RandomStoppingTime, space: FilteredSpace, size: int, seed: int, chunk_index: int
) -> np.ndarray:
    """Stop-time counts (atoms x times) for one chunk of the sample stream."""
    return _detailed_counter(eta, space)(size, seed, chunk_index)


def joint_counts_chunk(
    eta1: RandomStoppingTime,
    eta2: RandomStoppingTime,
    space: FilteredSpace,
    size: int,
    seed: int,
    chunk_index: int,
) -> np.ndarray:
    """Joint stop-time counts (atoms x times x times) for one chunk."""
    return _joint_counter(eta1, eta2, space)(size, seed, chunk_index)


def chunk_plan(samples: int) -> list[tuple[int, int]]:
    """(chunk_index, chunk_size) pairs covering ``samples`` draws."""
    plan = []
    index, remaining = 0, samples
    while remaining > 0:
        size = min(CHUNK_SIZE, remaining)
        plan.append((index, size))
        index += 1
        remaining -= size
    return plan


def _check_sampling_args(samples: int, seed: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Counts of realized (outcome, stop index) pairs from seeded sampling."""

    samples: int
    counts: Mapping[str, Mapping[Time, int]]

    @property
    def frequencies(self) -> dict[str, dict[Time, float]]:
        return {
            atom: {t: c / self.samples for t, c in row.items()}
            for atom, row in self.counts.items()
        }


def empirical_detailed_distribution(
    eta: RandomStoppingTime, space: FilteredSpace, samples: int, seed: int
) -> EmpiricalDistribution:
    """Relative frequencies over (outcome, stop index), deterministic per seed."""
    count = _detailed_counter(eta, space)
    _check_sampling_args(samples, seed)
    total = sum(count(size, seed, index) for index, size in chunk_plan(samples))
    counts = {
        atom: {t: int(total[i, j]) for j, t in enumerate(space.times)}
        for i, atom in enumerate(space.atoms)
    }
    return EmpiricalDistribution(samples=samples, counts=counts)


@dataclass(frozen=True)
class EmpiricalJointDistribution:
    """Counts of realized (outcome, stop index 1, stop index 2) triples."""

    samples: int
    counts: Mapping[str, Mapping[tuple[Time, Time], int]]

    @property
    def frequencies(self) -> dict[str, dict[tuple[Time, Time], float]]:
        return {
            atom: {cell: c / self.samples for cell, c in row.items()}
            for atom, row in self.counts.items()
        }


def _joint_total(eta1, eta2, space: FilteredSpace, samples: int, seed: int) -> np.ndarray:
    """Joint counts (atoms x times x times) summed over the seeded chunks."""
    count = _joint_counter(eta1, eta2, space)
    _check_sampling_args(samples, seed)
    return sum(count(size, seed, index) for index, size in chunk_plan(samples))


def empirical_joint_distribution(
    eta1: RandomStoppingTime,
    eta2: RandomStoppingTime,
    space: FilteredSpace,
    samples: int,
    seed: int,
) -> EmpiricalJointDistribution:
    """Joint frequencies for two rules run on independent draw streams."""
    total = _joint_total(eta1, eta2, space, samples, seed)
    counts = {
        atom: {
            (t1, t2): int(total[i, j1, j2])
            for j1, t1 in enumerate(space.times)
            for j2, t2 in enumerate(space.times)
        }
        for i, atom in enumerate(space.atoms)
    }
    return EmpiricalJointDistribution(samples=samples, counts=counts)


def empirical_game_payoff(
    eta1: RandomStoppingTime,
    eta2: RandomStoppingTime,
    game: StoppingGame,
    space: FilteredSpace,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Average realized payoffs over seeded sample runs of both rules.

    Only realized cells are visited, in C order (atom, then player 1's
    time, then player 2's), and each player's ``count * payoff`` terms are
    added one after another from 0.0, so the float sums run in a fixed order.
    """
    grids = _payoff_grids(game_tables(game, space), space)
    total = _joint_total(eta1, eta2, space, samples, seed)
    i, j1, j2 = np.nonzero(total)
    coalition = np.where(j1 < j2, 0, np.where(j2 < j1, 1, 2))  # COALITIONS' order
    terms = total[i, j1, j2] * grids[:, coalition, i, np.minimum(j1, j2)]
    sums = np.add.accumulate(terms, axis=1)[:, -1].tolist()
    # a sum started at 0.0 never ends at -0.0: adding 0.0 maps -0.0 to 0.0 and keeps the rest
    return tuple((s + 0.0) / samples for s in sums)


def _payoff_grids(tables: list[Table], space: FilteredSpace) -> np.ndarray:
    """Float payoffs by (player, coalition, atom, stop column), column T meaning INFINITY.

    The tables share one denominator; ``num / den`` of Python integers
    rounds exactly as ``float`` of the Fraction does.
    """
    den = tables[0].den
    paths = np.array(space.paths).reshape(len(space.atoms), space.horizon)
    grids = []
    for t in tables:
        blocks = np.array([n / den for n in t.blocks], float)
        grids.append(np.column_stack((blocks[paths], [n / den for n in t.atoms])))
    return np.stack(grids).reshape(2, 3, len(space.atoms), space.horizon + 1)
