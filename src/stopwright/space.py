"""Finite filtered probability spaces (scenario trees) with exact rational arithmetic.

A space is a finite set of elementary outcomes ("atoms", the leaves of a
scenario tree) carrying positive rational probabilities that sum to one,
together with a refining sequence of partitions: the blocks at time ``n``
are the sets of leaves below each depth-``n`` tree node.  The last
partition separates every atom, so anything known at the horizon is known
outcome by outcome.

All probabilities and process values are ``fractions.Fraction``; floats
are rejected on input so every downstream comparison stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    ProbabilitySumError,
    SpaceMismatch,
    StructureError,
    ZeroProbabilityError,
)

#: Stop index meaning "never stops in finite time".  Compares and sorts
#: correctly against integer times, which is all the code needs of it.
INFINITY = float("inf")

#: A time index: 1..T or INFINITY.
Time = Union[int, float]

#: An event is just a set of atoms.
Event = frozenset


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or rational string ("a/b", "3") to Fraction.

    Floats are rejected: the whole exact layer depends on no rounding ever
    entering a probability or payoff.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"floats are not exact; pass a string or Fraction (got {value!r})")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def time_label(t: Time) -> str:
    """Render a time index for messages and JSON keys ('1', ..., 'inf')."""
    return "inf" if t == INFINITY else str(int(t))


class FilteredSpace:
    """A validated scenario tree: atoms, probabilities, and partitions.

    ``levels[n-1]`` maps each time-``n`` block id to its member atoms.
    ``build_space`` names horizon blocks after their atoms; find them with ``block_of``.
    """

    def __init__(
        self,
        horizon: int,
        atoms: Iterable[str],
        prob: Mapping[str, Fraction],
        levels: Iterable[Mapping[str, tuple[str, ...]]],
    ):
        self.horizon = int(horizon)
        self.atoms = tuple(atoms)
        self.prob = {a: as_fraction(p) for a, p in prob.items()}
        self.levels = tuple({b: tuple(members) for b, members in level.items()} for level in levels)
        self._validate()
        self._index()

    # -- construction checks -------------------------------------------------

    def _validate(self) -> None:
        if self.horizon < 1:
            raise StructureError("horizon must be at least 1")
        if len(self.levels) != self.horizon:
            raise StructureError(
                f"expected {self.horizon} partition levels, got {len(self.levels)}"
            )
        atom_set = set(self.atoms)
        if len(atom_set) != len(self.atoms):
            raise StructureError("duplicate atom ids")
        if set(self.prob) != atom_set:
            raise StructureError("probability table does not match the atom set")
        for a in self.atoms:
            if self.prob[a] <= 0:
                raise ZeroProbabilityError(f"atom {a!r} has probability {self.prob[a]} <= 0")
        total = sum(self.prob.values())
        if total != 1:
            raise ProbabilitySumError(f"atom probabilities sum to {total}, expected 1")

        previous: list[tuple[str, ...]] | None = None
        for n, level in enumerate(self.levels, start=1):
            seen: set[str] = set()
            for block_id, members in level.items():
                if not members:
                    raise StructureError(f"block {block_id!r} at time {n} is empty")
                for a in members:
                    if a not in atom_set:
                        raise StructureError(f"block {block_id!r} references unknown atom {a!r}")
                    if a in seen:
                        raise StructureError(f"atom {a!r} appears in two blocks at time {n}")
                    seen.add(a)
            if seen != atom_set:
                raise StructureError(f"partition at time {n} does not cover all atoms")
            if previous is not None:
                coarse = {a: i for i, members in enumerate(previous) for a in members}
                for block_id, members in level.items():
                    parents = {coarse[a] for a in members}
                    if len(parents) > 1:
                        raise StructureError(
                            f"block {block_id!r} at time {n} straddles two blocks at time {n - 1}"
                        )
            previous = list(level.values())
        for block_id, members in self.levels[-1].items():
            if len(members) != 1:
                raise StructureError(
                    f"horizon partition must separate atoms; block {block_id!r} has {len(members)}"
                )

    def _index(self) -> None:
        self._block_of = []
        self._block_prob = []
        for level in self.levels:
            lookup = {a: b for b, members in level.items() for a in members}
            self._block_of.append(lookup)
            self._block_prob.append(
                {b: sum(self.prob[a] for a in members) for b, members in level.items()}
            )
        self._parent = [dict.fromkeys(self.levels[0])]
        self._children = []
        for n in range(self.horizon - 1):
            parent_of = {
                child_id: self._block_of[n][members[0]]
                for child_id, members in self.levels[n + 1].items()
            }
            child_map: dict[str, list[str]] = {b: [] for b in self.levels[n]}
            for child_id, parent_id in parent_of.items():
                child_map[parent_id].append(child_id)
            self._parent.append(parent_of)
            self._children.append({b: tuple(cs) for b, cs in child_map.items()})

    # -- structural queries ---------------------------------------------------

    @property
    def times(self) -> tuple[Time, ...]:
        """All stop indices: 1..T followed by INFINITY."""
        return tuple(range(1, self.horizon + 1)) + (INFINITY,)

    def blocks(self, n: int) -> tuple[str, ...]:
        """Block ids of the partition at time ``n``."""
        return tuple(self.levels[n - 1])

    def members(self, n: int, block_id: str) -> tuple[str, ...]:
        return self.levels[n - 1][block_id]

    def block_of(self, n: int, atom: str) -> str:
        """The time-``n`` block containing ``atom``."""
        return self._block_of[n - 1][atom]

    def block_prob(self, n: int, block_id: str) -> Fraction:
        return self._block_prob[n - 1][block_id]

    def children(self, n: int, block_id: str) -> tuple[str, ...]:
        """Blocks at time ``n+1`` refining the given time-``n`` block."""
        return self._children[n - 1][block_id]

    def top_down(self) -> Iterator[tuple[int, str, Optional[str]]]:
        """Every block with its parent: ``(n, block_id, parent_id)``, level by level.

        Time-1 blocks have parent ``None``, standing for the root at time
        0; within a level, blocks come in partition order.  Each time-``n``
        block comes after its time-``n-1`` parent, so a pass that keys its
        state by ``(n, block_id)``, seeded at ``(0, None)``, carries it from
        parent to child with no recursion and no rescan of earlier times:
        O(blocks) at any depth.
        """
        for n, parent_of in enumerate(self._parent, start=1):
            for block_id, parent_id in parent_of.items():
                yield n, block_id, parent_id

    def backward_induction(self, terminal: Mapping[str, Fraction], stage: Callable) -> tuple:
        """From the horizon back to time 1: ``(time-0 value, {n: {block_id: value}})``.

        A block's value is ``stage(n, block_id, continuation)``, where the
        continuation is the conditional expectation of its children's values
        or, at the horizon, the ``terminal`` value of its atom.
        """
        T = self.horizon
        values: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}

        def weighted(n: int, blocks) -> Fraction:
            return sum((self.block_prob(n, c) * values[n][c] for c in blocks), start=Fraction(0))

        for block_id, (atom,) in self.levels[T - 1].items():
            values[T][block_id] = stage(T, block_id, terminal[atom])
        for n in range(T - 1, 0, -1):
            for block_id in self.levels[n - 1]:
                below = weighted(n + 1, self.children(n, block_id))
                values[n][block_id] = stage(n, block_id, below / self.block_prob(n, block_id))
        return weighted(1, self.levels[0]), values

    def first_stop(self, stops_at: Callable[[int, str], bool]) -> dict[str, Time]:
        """Per atom, the first ``n`` on its path with ``stops_at(n, block_id)``, else INFINITY."""
        stopped: dict[tuple[int, Optional[str]], Time] = {(0, None): INFINITY}
        for n, block_id, parent_id in self.top_down():
            t = stopped[n - 1, parent_id]
            stopped[n, block_id] = n if t == INFINITY and stops_at(n, block_id) else t
        return {a: stopped[self.horizon, self.block_of(self.horizon, a)] for a in self.atoms}

    def spent(self, rho: Mapping[int, Mapping[str, Fraction]]) -> dict[tuple, Fraction]:
        """``(n, block_id)`` -> the block-keyed ``rho`` summed down the path to it; root 0."""
        spent: dict[tuple[int, Optional[str]], Fraction] = {(0, None): Fraction(0)}
        for n, block_id, parent_id in self.top_down():
            spent[n, block_id] = spent[n - 1, parent_id] + rho[n][block_id]
        return spent

    def __repr__(self) -> str:
        return f"FilteredSpace(T={self.horizon}, atoms={len(self.atoms)})"


def build_space(tree_description) -> FilteredSpace:
    """Build a FilteredSpace from a node list with parent links.

    Each node is a mapping with a string ``id`` and a ``parent`` (``None``
    or absent for the root); leaves additionally carry ``prob`` as a
    rational string.  The time-``n`` blocks are the leaf sets below each
    depth-``n`` node, and the horizon is the common leaf depth.
    """
    nodes = {}
    children: dict[str, list[str]] = {}
    root = None
    for node in tree_description:
        if not isinstance(node, Mapping) or not isinstance(node.get("id"), str):
            raise StructureError(f"every node must be a mapping with a string 'id', got {node!r}")
        parent = node.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise StructureError(f"node {node['id']!r} has a non-string parent {parent!r}")
        node_id = node["id"]
        if node_id in nodes:
            raise StructureError(f"duplicate node id {node_id!r}")
        nodes[node_id] = node
        children.setdefault(node_id, [])
    for node in tree_description:
        parent = node.get("parent")
        if parent is None:
            if root is not None:
                raise StructureError("more than one root node")
            root = node["id"]
        else:
            if parent not in nodes:
                raise StructureError(f"node {node['id']!r} has unknown parent {parent!r}")
            children[parent].append(node["id"])
    if root is None:
        raise StructureError("no root node (one node must have parent null)")

    depth = {root: 0}
    order = [root]
    for node_id in order:
        for child in children[node_id]:
            depth[child] = depth[node_id] + 1
            order.append(child)
    if len(order) != len(nodes):
        raise StructureError("tree contains nodes unreachable from the root")

    leaves = [node_id for node_id in order if not children[node_id]]
    horizon = depth[leaves[0]]
    for leaf in leaves:
        if depth[leaf] != horizon:
            raise StructureError(
                f"leaves at unequal depths ({depth[leaf]} vs {horizon}); all must sit at the horizon"
            )
    if horizon < 1:
        raise StructureError("the root cannot be a leaf; horizon must be at least 1")
    for node_id in order:
        has_prob = "prob" in nodes[node_id] and nodes[node_id]["prob"] is not None
        if children[node_id] and has_prob:
            raise StructureError(f"internal node {node_id!r} must not carry a probability")
        if not children[node_id] and not has_prob:
            raise StructureError(f"leaf {node_id!r} is missing its probability")

    prob = {leaf: as_fraction(nodes[leaf]["prob"]) for leaf in leaves}

    below: dict[str, tuple[str, ...]] = {leaf: (leaf,) for leaf in leaves}
    for node_id in reversed(order):
        if children[node_id]:
            below[node_id] = tuple(a for c in children[node_id] for a in below[c])
    # ``order`` is breadth-first, so one pass keeps each level in tree order.
    levels: list[dict[str, tuple[str, ...]]] = [{} for _ in range(horizon)]
    for node_id in order[1:]:
        levels[depth[node_id] - 1][node_id] = below[node_id]

    return FilteredSpace(horizon, leaves, prob, levels)


@dataclass(frozen=True)
class AdaptedProcess:
    """Rational values per (time, block), plus one value per atom at INFINITY.

    Keying values by block id makes adaptedness structural: a time-``n``
    value cannot vary inside a time-``n`` block because there is only one
    slot for it.
    """

    values: Mapping[int, Mapping[str, Fraction]]
    infinity: Mapping[str, Fraction]

    def value_at(self, space: FilteredSpace, t: Time, atom: str) -> Fraction:
        if t == INFINITY:
            return self.infinity[atom]
        return self.values[t][space.block_of(t, atom)]


def adapted_process(values, infinity) -> AdaptedProcess:
    """Build an AdaptedProcess, coercing ints/strings to exact Fractions."""
    return AdaptedProcess(
        values={int(n): {b: as_fraction(v) for b, v in level.items()} for n, level in values.items()},
        infinity={a: as_fraction(v) for a, v in infinity.items()},
    )


def constant_process(space: FilteredSpace, value) -> AdaptedProcess:
    """The process equal to ``value`` at every time and at INFINITY."""
    c = as_fraction(value)
    return AdaptedProcess(
        values={n: {b: c for b in space.blocks(n)} for n in range(1, space.horizon + 1)},
        infinity={a: c for a in space.atoms},
    )


def check_process(space: FilteredSpace, process: AdaptedProcess) -> None:
    """Raise SpaceMismatch unless ``process`` is keyed exactly by this space."""
    expected_times = set(range(1, space.horizon + 1))
    if set(process.values) != expected_times:
        raise SpaceMismatch(
            f"process defined at times {sorted(process.values)}, space has 1..{space.horizon}"
        )
    for n in expected_times:
        if set(process.values[n]) != set(space.blocks(n)):
            raise SpaceMismatch(f"process blocks at time {n} do not match the space")
    if set(process.infinity) != set(space.atoms):
        raise SpaceMismatch("process INFINITY slot does not match the atom set")


def expectation(space: FilteredSpace, f: Mapping[str, Fraction]) -> Fraction:
    """Exact expected value of an atom-indexed function."""
    return sum((space.prob[a] * f[a] for a in space.atoms), start=Fraction(0))


def conditional_expectation(
    space: FilteredSpace, f: Mapping[str, Fraction], n: int
) -> dict[str, Fraction]:
    """Average ``f`` over each time-``n`` block: block id -> E[f | block].

    ``f`` is indexed by atom; block probabilities are positive by
    construction so no division can fail.
    """
    out = {}
    for block_id in space.blocks(n):
        members = space.members(n, block_id)
        total = sum((space.prob[a] * f[a] for a in members), start=Fraction(0))
        out[block_id] = total / space.block_prob(n, block_id)
    return out


def is_measurable(space: FilteredSpace, f: Mapping[str, Fraction], n: int) -> bool:
    """True iff the atom-indexed ``f`` is constant on every time-``n`` block."""
    for block_id in space.blocks(n):
        members = space.members(n, block_id)
        first = f[members[0]]
        if any(f[a] != first for a in members[1:]):
            return False
    return True


def event_is_measurable(space: FilteredSpace, event: Iterable[str], n: int) -> bool:
    """True iff the event (a set of atoms) is a union of time-``n`` blocks."""
    event = frozenset(event)
    indicator = {a: Fraction(1 if a in event else 0) for a in space.atoms}
    return is_measurable(space, indicator, n)
