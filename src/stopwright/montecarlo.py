"""Monte-Carlo execution of stopping rules from explicit external randomness.

This is the package's independent cross-check: rules are *run*, sample by
sample, from uniform draws, and the resulting frequencies are compared
against the exact tables computed elsewhere.  Nothing here reuses the
exact layer's arithmetic beyond reading the rule's parameters and the parts
its check builds (for a randomized rule, the cumulative stop masses its sum
check adds up), and for a game the integer tables its exact calls share.

Reproducibility contract
------------------------
One counter serves one rule or two.  Sampling is chunked: chunk ``i``
covers samples ``[i*CHUNK_SIZE, ...)`` and is seeded with
``numpy.random.SeedSequence((seed, i))`` (PCG64).  One rule draws from that
sequence's generator, outcome uniforms first and then its stop draws; two
rules draw from the three generators spawned from it, in the order
outcome, player 1, player 2.  A chunk's counts, by (atom, *stop columns),
depend only on ``seed``, ``i`` and its size, and totals are sums of
per-chunk counts, so any split of whole chunks across workers reproduces
the single-worker result bit for bit, and identical seeds always give
identical output.

Counting by realized cell
-------------------------
A chunk gives each sample's cell as one flat index into the grid by
(atom, *stop columns), which has one cell per atom and per stop time of
each rule, far more than a run of samples can reach.  A game payoff
counts only the cells the samples realize: one ``numpy.unique`` over the
run's indices gives them in C order with their counts, the very cells and
counts the grid's nonzero entries would give, so its float sums come out
the same to the bit.  Only the callers that return the grid build it:
``detailed_counts_chunk`` and the count dicts of the empirical
distributions, which keep their zero cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping

import numpy as np

from .space import INFINITY, FilteredSpace, Kept, Time
from .stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomStoppingTime,
    RandomizedStoppingTime,
    check,
)
from .games import StoppingGame, kept_game

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


def _space_arrays(space: FilteredSpace) -> tuple[np.ndarray, np.ndarray]:
    """The atoms' cumulative probabilities and (atoms, T) block paths, kept by the space as a
    check is, with itself as the input.  ``mass / denominator`` of Python integers rounds
    as ``float`` of the Fraction does."""

    def build():
        c = np.cumsum([m / space.denominator for m in space.atom_mass])
        c[-1] = 1.0
        return c, np.array(space.paths).reshape(len(space.atoms), space.horizon)

    return space.recall(space, build).parts


def _first_true(mask: np.ndarray, never: int) -> np.ndarray:
    """Per row, the column of the first True, else ``never``."""
    return np.where(mask.any(axis=1), mask.argmax(axis=1), never)


def _stop_columns(eta: RandomStoppingTime, space: FilteredSpace):
    """The rule's sampler: ``columns(rng, atom_idx)`` draws one realized stop per sample.

    Columns 0..T-1 are times 1..T and column T is "never".  The rule is checked here, and
    the sampler is built once per kept check from the check's parts: a randomized rule's
    cumulative masses from its spent pass, a mixed rule's cuts from its integer weights
    (``int / int`` rounds as ``float`` of the Fraction does).  It only draws and looks up.
    """
    return check(eta, space).derive(_SAMPLERS[type(eta)], space)


def _columns(stops, space: FilteredSpace) -> list:
    """Per atom, the column of its stop block, T if it has none."""
    return [space.horizon if i is None else space.depth[i] - 1 for i in stops]


def _pick(table, rng, atom_idx):
    return table[atom_idx]


def _threshold(cum, rng, atom_idx):
    r = rng.random(len(atom_idx))
    rows = cum[atom_idx]
    return _first_true((rows > 0) & (rows >= r[:, None]), cum.shape[1])


def _hazards(hazard, rng, atom_idx):
    draws = rng.random((len(atom_idx), hazard.shape[1]))
    return _first_true(draws < hazard[atom_idx], hazard.shape[1])


def _sections(cuts, section_cols, rng, atom_idx):
    """One draw selects the section, the section decides per atom."""
    k = np.searchsorted(cuts, rng.random(len(atom_idx)), side="left")
    return section_cols[k, atom_idx]


#: Per rule type, its sampler from its kept check's parts.
_SAMPLERS = {
    PureStoppingTime: lambda kept, space: partial(_pick, np.array(_columns(kept.parts, space))),
    RandomizedStoppingTime: lambda kept, space: partial(
        _threshold, np.array([c / kept.parts[1] for c in kept.parts[2]])[_space_arrays(space)[1]]
    ),
    BehaviorStoppingTime: lambda kept, space: partial(
        _hazards, np.array([float(h) for h in kept.parts])[_space_arrays(space)[1]]
    ),
    MixedStoppingTime: lambda kept, space: partial(
        _sections,
        np.array([c / kept.parts[2] for c in itertools.accumulate(kept.parts[1])]),
        np.array([_columns(stops, space) for stops in kept.parts[0]]),
    ),
}


def _counter(rules: tuple, space: FilteredSpace):
    """``(cells, shape)``: ``cells(size, seed, chunk_index)`` gives one chunk's samples as
    flat indices, in C order, into an array of ``shape`` by (atom, *stop columns).

    One rule draws everything from the chunk's generator; two rules draw
    from the three generators it spawns (outcome, player 1, player 2).
    Each rule's sampler is built once.
    """
    cumprobs = _space_arrays(space)[0]
    samplers = [_stop_columns(eta, space) for eta in rules]
    shape = (len(space.atoms),) + (space.horizon + 1,) * len(rules)

    def cells(size: int, seed: int, chunk_index: int) -> np.ndarray:
        root = np.random.SeedSequence((seed, chunk_index))
        if len(rules) == 1:
            rngs = [np.random.default_rng(root)] * 2
        else:
            rngs = [np.random.default_rng(s) for s in root.spawn(3)]
        atom_idx = np.searchsorted(cumprobs, rngs[0].random(size), side="left")
        columns = [sampler(rng, atom_idx) for sampler, rng in zip(samplers, rngs[1:])]
        return np.ravel_multi_index((atom_idx, *columns), shape)

    return cells, shape


def _dense(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """Counts of the flat cell indices, as an int64 array of ``shape``."""
    counts = np.bincount(flat, minlength=math.prod(shape))
    return counts.astype(np.int64, copy=False).reshape(shape)


def detailed_counts_chunk(
    eta: RandomStoppingTime, space: FilteredSpace, size: int, seed: int, chunk_index: int
) -> np.ndarray:
    """Stop-time counts (atoms x times) for one chunk of the sample stream."""
    cells, shape = _counter((eta,), space)
    return _dense(cells(size, seed, chunk_index), shape)


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
    for name, value in (("samples", samples), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"{name} must be an int, got {value!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _chunks(rules: tuple, space: FilteredSpace, samples: int, seed: int) -> tuple:
    """``(chunks, shape)``: the flat cell index of every sample, one array per seeded chunk,
    each drawn when the iterator reaches it."""
    cells, shape = _counter(rules, space)
    return (cells(size, seed, index) for index, size in chunk_plan(samples)), shape


def _counts(rules: tuple, space: FilteredSpace, samples: int, seed: int) -> dict:
    """Per atom, the counts of each cell: a time for one rule, ``(t1, t2)`` in C order for two.
    ``samples`` and ``seed`` are checked before any rule."""
    _check_sampling_args(samples, seed)
    chunks, shape = _chunks(rules, space, samples, seed)
    total = sum(_dense(flat, shape) for flat in chunks)
    cells = space.times if len(rules) == 1 else list(itertools.product(space.times, repeat=2))
    return {atom: dict(zip(cells, row.ravel().tolist())) for atom, row in zip(space.atoms, total)}


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Counts of realized (outcome, stop index) pairs from seeded sampling."""

    samples: int
    counts: Mapping[str, Mapping[Time, int]]

    @property
    def frequencies(self) -> dict[str, dict]:
        return {
            atom: {cell: c / self.samples for cell, c in row.items()}
            for atom, row in self.counts.items()
        }


@dataclass(frozen=True)
class EmpiricalJointDistribution(EmpiricalDistribution):
    """Counts of realized (outcome, stop index 1, stop index 2) triples."""

    counts: Mapping[str, Mapping[tuple[Time, Time], int]]


def empirical_detailed_distribution(
    eta: RandomStoppingTime, space: FilteredSpace, samples: int, seed: int
) -> EmpiricalDistribution:
    """Relative frequencies over (outcome, stop index), deterministic per seed."""
    return EmpiricalDistribution(samples, _counts((eta,), space, samples, seed))


def empirical_joint_distribution(
    eta1: RandomStoppingTime,
    eta2: RandomStoppingTime,
    space: FilteredSpace,
    samples: int,
    seed: int,
) -> EmpiricalJointDistribution:
    """Joint frequencies for two rules run on independent draw streams."""
    return EmpiricalJointDistribution(samples, _counts((eta1, eta2), space, samples, seed))


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
    ``samples`` and ``seed`` are checked before any rule or the game.
    """
    _check_sampling_args(samples, seed)
    grids = kept_game(game, space).derive(_payoff_grids, space)
    chunks, shape = _chunks((eta1, eta2), space, samples, seed)
    cells, counts = np.unique(np.concatenate([*chunks]), return_counts=True)
    i, j1, j2 = np.unravel_index(cells, shape)
    coalition = np.where(j1 < j2, 0, np.where(j2 < j1, 1, 2))  # COALITIONS' order
    terms = counts * grids[:, coalition, i, np.minimum(j1, j2)]
    sums = np.add.accumulate(terms, axis=1)[:, -1].tolist()
    # a sum started at 0.0 never ends at -0.0: adding 0.0 maps -0.0 to 0.0 and keeps the rest
    return tuple((s + 0.0) / samples for s in sums)


def _payoff_grids(game: Kept, space: FilteredSpace) -> np.ndarray:
    """Float payoffs by (player, coalition, atom, stop column), column T meaning INFINITY.

    The game's tables share one denominator; ``num / den`` of Python
    integers rounds exactly as ``float`` of the Fraction does.
    """
    den = game.parts[0].den
    paths = _space_arrays(space)[1]
    grids = []
    for t in game.parts:
        blocks = np.array([n / den for n in t.blocks], float)
        grids.append(np.column_stack((blocks[paths], [n / den for n in t.atoms])))
    return np.stack(grids).reshape(2, 3, len(space.atoms), space.horizon + 1)
