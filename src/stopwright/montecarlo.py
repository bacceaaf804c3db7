"""Monte-Carlo execution of stopping rules from explicit external randomness.

This is the package's independent cross-check: rules are *run* from
uniform draws, many samples at a time, and the resulting frequencies are
compared against the exact tables computed elsewhere.  Nothing here
reuses the exact layer's arithmetic beyond reading the rule's parameters
and the parts its check builds (for a randomized rule, the cumulative
stop masses its sum check adds up), and for a game the integer tables
its exact calls share.

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
the same to the bit.  Each cell's payoffs are one ``take`` from the game's
flat grids: ``divmod`` by (T + 1)^2 splits its index into the atom and the
pair of stop columns, and a (T + 1)^2 lookup, kept with the grids, maps
the pair to the offset of the coalition that stops first at the earlier
column.  Only the callers that return the grid build it:
``detailed_counts_chunk`` and the count dicts of the empirical
distributions, which keep their zero cells.

Chunk kernels
-------------
A draw's outcome atom is read off the space's bucket table (``_buckets``):
a bucket of the unit interval that holds no cumulative probability decides
it, and only the draws in the other buckets are searched, so every draw
gets the atom a sorted search of every draw gives.  A randomized rule's
stop (``_threshold``) is read the same way off a per-atom table of K
buckets, K at least 16 per time (``_stop_table``, kept with the sampler on
the rule's check): a bucket that holds none of the atom's positive
cumulative masses gives the count of the times before the stop, and only
a draw in another bucket (about 1% on a binary tree of depth 10) is compared with
its atom's masses.  A behavior rule's stop (``_hazards``) is the
``argmax`` of a contiguous mask of draws below the hazards, gathered with
``take`` and filled a block of draws at a time, so its float temporaries
stay small; a row whose ``argmax`` cell is False has no stop.  Each
kernel makes the same draws, in the same order, and the same float
comparisons as a per-row search for the first stop would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from .space import FilteredSpace, Kept, Time, is_int
from .stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomStoppingTime,
    RandomizedStoppingTime,
    check,
)

if TYPE_CHECKING:  # only ``empirical_game_payoff`` reads a game, and it loads ``games``
    from .games import StoppingGame

CHUNK_SIZE = 4096


# -- vectorized chunk sampling -------------------------------------------------


def _space_arrays(space: FilteredSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The atoms' cumulative probabilities, their bucket table (``_buckets``) and the (atoms, T)
    block paths, ``space.slots`` at 1..T transposed into C order, kept by the space as a check
    is, with itself as the input.  ``mass / denominator`` of Python integers rounds as
    ``float`` of the Fraction does."""

    def build():
        c = np.cumsum([m / space.denominator for m in space.atom_mass])
        c[-1] = 1.0
        return c, _buckets(c), np.array(space.slots[:-1]).T.copy()

    return space.recall(space, build).parts


def _buckets(cum: np.ndarray) -> np.ndarray:
    """Per bucket ``[k/K, (k+1)/K)`` of the unit interval, the atom every draw in it selects,
    or -1 if the bucket holds a cumulative probability and so more than one atom can be drawn.

    K is the least power of two at least 16 per atom, so ``u * K`` is exact and most buckets
    hold no cumulative probability.  A draw in ``[k/K, (k+1)/K)`` selects an atom from
    ``searchsorted(cum, k/K)`` to ``searchsorted(cum, (k+1)/K)``, since the lookup is monotone
    in the draw; where those agree, the bucket decides it.
    """
    K = 1 << (16 * len(cum) - 1).bit_length()
    edges = np.searchsorted(cum, np.arange(K + 1) / K, side="left")
    return np.where(edges[:-1] == edges[1:], edges[:-1], -1)


def _outcomes(cum: np.ndarray, buckets: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per draw ``u``, the first atom whose cumulative probability reaches it,
    ``searchsorted(cum, u, side="left")``: read off its bucket, or searched for in an
    ambiguous one."""
    atom = buckets.take((u * len(buckets)).astype(np.intp))
    ambiguous = np.flatnonzero(atom < 0)
    atom[ambiguous] = np.searchsorted(cum, u[ambiguous], side="left")
    return atom


def _stop_columns(eta: RandomStoppingTime, space: FilteredSpace):
    """The rule's sampler: ``columns(rng, atom_idx)`` draws one realized stop per sample.

    Columns 0..T-1 are times 1..T and column T is "never".  The rule is checked here, and
    the sampler is built once per kept check from the check's parts: a randomized rule's
    cumulative masses from its spent pass, with their stop table (``_stop_table``), a mixed
    rule's cuts from its integer weights (``int / int`` rounds as ``float`` of the Fraction
    does).  It only draws and looks up.
    """
    return check(eta, space).derive(_SAMPLERS[type(eta)], space)


def _columns(stops, space: FilteredSpace) -> np.ndarray:
    """Per atom, the column of its stop cell: n - 1 for a time-n block, T for its own cell;
    per section and atom for a list of sections' stops."""
    return np.array([*space.depth, *[space.horizon + 1] * len(space.atoms)])[stops] - 1


def _pick(table, rng, atom_idx):
    return table.take(atom_idx)


def _stop_table(cum: np.ndarray) -> np.ndarray:
    """Per atom and bucket ``[k/K, (k+1)/K)``, the stop column of every draw in it, or -1 if
    one of the atom's positive cumulative masses lies in the bucket.

    ``cum`` is (T, atoms).  K is the least power of two at least 16 per time, so ``r * K`` is
    exact and ``floor(cum * K)`` is a mass's bucket.  A draw's column is the count of the
    masses below it, zero masses always counted: with each positive mass keyed one past its
    bucket and a zero mass 0, the count at bucket k is that of the keys up to k, the same for
    every draw of a bucket that no key k + 1 marks.  Each atom's row is its columns repeated
    over the runs between its sorted keys, in the least signed dtype holding T + 1.
    """
    T, atoms = cum.shape
    K = 1 << (16 * T - 1).bit_length()
    keys = (cum.T * K).astype(np.intp) + (cum.T > 0)  # (atoms, T), nondecreasing per atom
    runs = np.diff(np.minimum(keys, K), axis=1, prepend=0, append=K)
    column = np.arange(T + 1, dtype=np.min_scalar_type(-(T + 1)))
    table = np.repeat(np.tile(column, atoms), runs.ravel()).reshape(atoms, K)
    marked = (keys > 0) & (keys <= K)
    table.ravel()[(keys + np.arange(0, atoms * K, K)[:, None] - 1)[marked]] = -1
    return table


def _threshold(parts, rng, atom_idx):
    """The first time whose positive cumulative mass reaches the draw, else column T.

    ``parts`` is the (T, atoms) cumulative masses ``cum``, nondecreasing down each column, and
    their ``_stop_table``.  That time is the count of the times before it: those whose mass is
    below the draw, or zero for a draw of 0.0, which the floor of the draw at the least
    positive float counts.  The table gives it for a draw in an unmarked bucket; a draw in a
    marked one is compared with its atom's masses."""
    cum, table = parts
    K = table.shape[1]
    r = rng.random(len(atom_idx))
    stops = table.take(atom_idx * K + (r * K).astype(np.intp)).astype(np.intp)
    exact = np.flatnonzero(stops < 0)
    least = np.maximum(r[exact], 5e-324)
    stops[exact] = np.add.reduce(cum[:, atom_idx[exact]] < least, axis=0, dtype=np.intp)
    return stops


def _hazards(hazard, rng, atom_idx):
    """The first time whose draw falls below its hazard, else column T: ``argmax`` finds the
    first True of each row, and a row whose first cell by it is False has none.

    The rows are drawn and compared a block of about 8,192 draws at a time, one stream in
    order, so the float temporaries stay small enough to be reused instead of mapped afresh.
    """
    n, T = len(atom_idx), hazard.shape[1]
    stops = np.empty((n, T), bool)
    rows = max(1, 8192 // T)
    for lo in range(0, n, rows):
        block = atom_idx[lo : lo + rows]
        np.less(rng.random((len(block), T)), hazard.take(block, axis=0), out=stops[lo : lo + rows])
    first = stops.argmax(axis=1)
    first[~stops.ravel().take(first + np.arange(0, n * T, T))] = T
    return first


def _sections(cuts, section_cols, rng, atom_idx):
    """One draw selects the section, the section decides per atom."""
    k = np.searchsorted(cuts, rng.random(len(atom_idx)), side="left")
    return section_cols[k, atom_idx]


def _randomized(kept: Kept, space: FilteredSpace):
    cum = np.array([c / kept.parts[0].den for c in kept.parts[1]])[_space_arrays(space)[2].T]
    return partial(_threshold, (cum, _stop_table(cum)))


#: Per rule type, its sampler from its kept check's parts.
_SAMPLERS = {
    PureStoppingTime: lambda kept, space: partial(_pick, _columns(kept.parts, space)),
    RandomizedStoppingTime: _randomized,
    BehaviorStoppingTime: lambda kept, space: partial(
        _hazards, np.array([float(h) for h in kept.parts])[_space_arrays(space)[2]]
    ),
    MixedStoppingTime: lambda kept, space: partial(
        _sections,
        np.array([c / kept.parts[2] for c in itertools.accumulate(kept.parts[1])]),
        _columns(kept.parts[0], space),
    ),
}


def _counter(rules: tuple, space: FilteredSpace):
    """``(cells, shape)``: ``cells(size, seed, chunk_index)`` gives one chunk's samples as
    flat indices, in C order, into an array of ``shape`` by (atom, *stop columns).

    One rule draws everything from the chunk's generator; two rules draw
    from the three generators it spawns (outcome, player 1, player 2).
    Each rule's sampler is built once.
    """
    cumprobs, buckets, _ = _space_arrays(space)
    samplers = [_stop_columns(eta, space) for eta in rules]
    shape = (len(space.atoms),) + (space.horizon + 1,) * len(rules)

    def cells(size: int, seed: int, chunk_index: int) -> np.ndarray:
        root = np.random.SeedSequence((seed, chunk_index))
        if len(rules) == 1:
            rngs = [np.random.default_rng(root)] * 2
        else:
            rngs = [np.random.default_rng(s) for s in root.spawn(3)]
        atom_idx = _outcomes(cumprobs, buckets, rngs[0].random(size))
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
    """Stop-time counts (atoms x times) for one chunk of the sample stream.

    ``size``, ``seed`` and ``chunk_index`` are checked as ``_check_sampling_args`` checks
    them, before the rule is read."""
    _check_sampling_args(size, seed, chunk_index)
    cells, shape = _counter((eta,), space)
    return _dense(cells(size, seed, chunk_index), shape)


def chunk_plan(samples: int) -> list[tuple[int, int]]:
    """(chunk_index, chunk_size) pairs covering ``samples`` draws."""
    starts = range(0, samples, CHUNK_SIZE)
    return [(index, min(CHUNK_SIZE, samples - start)) for index, start in enumerate(starts)]


def _check_sampling_args(samples: int, seed: int, chunk_index: int = 0) -> None:
    """Each argument an int (not a bool), else TypeError, at least its least value: 1 for
    ``samples``, 0 for ``seed`` and ``chunk_index``, else ValueError."""
    named = (("samples", samples, 1), ("seed", seed, 0), ("chunk_index", chunk_index, 0))
    for name, value, least in named:
        if not is_int(value):
            raise TypeError(f"{name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


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
    """Counts of realized cells from seeded sampling, per outcome: by stop index for one rule,
    by the pair of stop indices ``(t1, t2)`` for two."""

    samples: int
    counts: Mapping[str, Mapping[Union[Time, tuple[Time, Time]], int]]

    @property
    def frequencies(self) -> dict[str, dict]:
        return {
            atom: {cell: c / self.samples for cell, c in row.items()}
            for atom, row in self.counts.items()
        }


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
) -> EmpiricalDistribution:
    """Joint frequencies for two rules run on independent draw streams."""
    return EmpiricalDistribution(samples, _counts((eta1, eta2), space, samples, seed))


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
    from .games import kept_game

    _check_sampling_args(samples, seed)
    grids, lookup = kept_game(game, space).derive(_payoff_grids, space)
    chunks, shape = _chunks((eta1, eta2), space, samples, seed)
    cells, counts = np.unique(np.concatenate([*chunks]), return_counts=True)
    atom, stops = np.divmod(cells, len(lookup))
    terms = counts * grids.take(lookup.take(stops) + atom * shape[1], axis=1)
    sums = np.add.accumulate(terms, axis=1)[:, -1].tolist()
    # a sum started at 0.0 never ends at -0.0: adding 0.0 maps -0.0 to 0.0 and keeps the rest
    return tuple((s + 0.0) / samples for s in sums)


def _payoff_grids(game: Kept, space: FilteredSpace) -> tuple[np.ndarray, np.ndarray]:
    """Float payoffs by player and flat (coalition, atom, stop column), column T meaning
    INFINITY, and per pair of stop columns ``(j1, j2)``, flat ``j1 * (T + 1) + j2``, the
    offset of its coalition's grid at column ``min(j1, j2)``: an atom's cell is then that
    offset plus ``atom * (T + 1)``.

    The game's tables share one denominator; ``num / den`` of Python
    integers rounds exactly as ``float`` of the Fraction does.
    """
    den = game.parts[0].den
    paths = _space_arrays(space)[2]
    grids = []
    for t in game.parts:
        cells = np.array([n / den for n in t.cells], float)
        grids.append(np.column_stack((cells[paths], cells[space.root :])))
    j = np.arange(space.horizon + 1)
    j1, j2 = j[:, None], j[None, :]
    coalition = np.where(j1 < j2, 0, np.where(j2 < j1, 1, 2))  # COALITIONS' order
    lookup = coalition * (len(space.atoms) * len(j)) + np.minimum(j1, j2)
    return np.stack(grids).reshape(2, -1), lookup.ravel()
