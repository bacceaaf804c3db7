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

import math
import weakref
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import attrgetter, getitem, mul
from typing import NamedTuple, Optional, Union

from .errors import (
    ProbabilitySumError,
    SpaceMismatch,
    StructureError,
    ValidationError,
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
    entering a probability or payoff.  A plain Fraction comes back as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    if isinstance(value, float):
        raise TypeError(f"floats are not exact; pass a string or Fraction (got {value!r})")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


class ReadOnly(dict):
    """A dict that refuses every change in place.  Rules, processes and games hold their tables
    in it, so each stays the input it was when built; ``dict(table)`` is a copy to edit."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("this table is read-only; edit a copy, such as dict(table)")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return ReadOnly, (dict(self),)


def read_only(table):
    """A mapping as a ReadOnly copy, or itself if it is one; anything else as it is."""
    return ReadOnly(table) if type(table) is not ReadOnly and isinstance(table, Mapping) else table


def read_only_rows(table):
    """A per-time table as a ReadOnly copy whose mapping rows are ``read_only`` too; a ReadOnly
    table of ReadOnly rows, or anything not a mapping, as it is."""
    if not isinstance(table, Mapping) or {type(table), *map(type, table.values())} == {ReadOnly}:
        return table
    return ReadOnly({n: ReadOnly(r) if type(r) is dict else read_only(r) for n, r in table.items()})


def fraction_table(table) -> ReadOnly:
    """A per-time block table as read-only ``{int(n): {b: as_fraction(v)}}``, in its own order."""
    rows = {int(n): ReadOnly({b: as_fraction(v) for b, v in r.items()}) for n, r in table.items()}
    return ReadOnly(rows)


def time_label(t: Time) -> str:
    """Render a time index for messages and JSON keys ('1', ..., 'inf'); a float off the
    integers, such as 2.5 or nan, as its repr, and an int too long to write by its size."""
    try:
        return "inf" if t == INFINITY else str(int(t)) if t % 1 == 0 else repr(t)
    except ValueError:  # past the interpreter's limit on the digits of an int string
        return f"an int of {int(t).bit_length()} bits"


@dataclass(frozen=True)
class Violation:
    """First violated clause of a rule's or a process's invariants.

    kind is one of NotAdapted, SumNotOne, OutOfRange,
    SectionNotStoppingTime, or Malformed (structurally incomplete table).
    """

    kind: str
    time: Optional[Time] = None
    where: Optional[str] = None
    detail: str = ""

    def __str__(self) -> str:
        parts = []
        if self.time is not None:
            parts.append(f"n={time_label(self.time)}")
        if self.where is not None:
            parts.append(f"at {self.where}")
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.kind} {' '.join(parts)}{suffix}".strip()


def _exact(value) -> bool:
    return isinstance(value, Fraction) or (isinstance(value, int) and not isinstance(value, bool))


class Table(NamedTuple):
    """An adapted table over the flat block numbering, in integers over one denominator.

    ``blocks[i] / den`` is the value on block ``i`` and ``atoms[j] / den``
    the value of atom ``j`` at INFINITY.  Densities (stop mass per block,
    never-stop mass per atom) and payoff processes both take this form
    inside the exact passes; ``FilteredSpace.fractions`` turns one back
    into the public Fraction dicts.
    """

    blocks: list
    atoms: list
    den: int


numerator_of = attrgetter("numerator")
denominator_of = attrgetter("denominator")


def integers(cells: Sequence) -> tuple[list[int], int]:
    """Exact values as integer numerators over one denominator, the lcm of theirs."""
    dens = list(map(denominator_of, cells))
    scale = dict.fromkeys(dens)
    den = math.lcm(*scale)
    for q in scale:
        scale[q] = den // q
    return list(map(mul, map(numerator_of, cells), map(scale.__getitem__, dens))), den


class FractionsOver(dict):
    """``self[num]`` is ``Fraction(num, den)``, built on first use and shared after."""

    def __init__(self, den: int):
        super().__init__()
        self.den = den

    def __missing__(self, num: int) -> Fraction:
        value = self[num] = Fraction(num, self.den)
        return value


class Kept:
    """A check kept by ``FilteredSpace.recall``: the parts it built and what ``derive`` built
    from those, shared by every call that reuses it: never mutated."""

    __slots__ = ("ref", "parts", "derived")

    def __init__(self, ref: weakref.ref, parts):
        self.ref, self.parts, self.derived = ref, parts, {}

    def derive(self, make: Callable, space: "FilteredSpace", *args):
        """``make(self, space, *args)``, built on the first call with this ``make`` and these
        ``args`` and shared after, so it dies with this check."""
        key = (make, *args)
        value = self.derived.get(key)
        if value is None:
            value = self.derived[key] = make(self, space, *args)
        return value


class FilteredSpace:
    """A validated scenario tree: atoms, probabilities, and partitions.

    ``levels[n-1]`` maps each time-``n`` block id to its member atoms.
    ``build_space`` names horizon blocks after their atoms; find them with ``block_of``.
    ``prob`` and the ``levels`` rows are read-only, as the results kept from them assume.

    The blocks are also numbered 0..B-1 once, level by level and in
    partition order, so each block comes after its parent.  The exact
    passes run over that flat numbering:

    * ``ids[i]`` and ``depth[i]`` are block ``i``'s id and time;
    * ``parent[i]`` is its parent's number, ``root`` (= B) at time 1, so a
      pass keeps the root's state in the last slot of a list of B + 1;
    * ``starts[n-1]:starts[n]`` are the time-``n`` blocks;
    * ``paths[j]`` lists the blocks of atom ``j`` at times 1..T, and
      ``leaf[j]`` is the last of them;
    * ``block_mass[i] / denominator`` and ``atom_mass[j] / denominator``
      are the probabilities, with ``denominator`` the lcm of the atoms'.
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
        self.prob = ReadOnly({a: as_fraction(p) for a, p in prob.items()})
        self.levels = tuple(ReadOnly(zip(level, map(tuple, level.values()))) for level in levels)
        self._validate()
        self._index()
        #: ``recall``'s kept checks, by the type and id of their input
        self._kept: dict = {}

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
        self.atom_mass, self.denominator = integers([self.prob[a] for a in self.atoms])
        for a, m in zip(self.atoms, self.atom_mass):
            if m <= 0:
                raise ZeroProbabilityError(f"atom {a!r} has probability {self.prob[a]} <= 0")
        if sum(self.atom_mass) != self.denominator:
            total = sum(self.prob.values())
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
        self._block_of = [
            {a: b for b, members in level.items() for a in members} for level in self.levels
        ]
        self.ids = [b for level in self.levels for b in level]
        self.root = len(self.ids)
        self.depth: list[int] = []
        self.parent: list[int] = []
        self.starts = [0]
        self._number: list[dict[str, int]] = []
        for n, level in enumerate(self.levels, start=1):
            start = self.starts[-1]
            self.starts.append(start + len(level))
            self._number.append(dict(zip(level, range(start, self.starts[-1]))))
            self.depth.extend([n] * len(level))
            if n == 1:
                self.parent.extend([self.root] * len(level))
            else:
                up_block, up_number = self._block_of[n - 2], self._number[n - 2]
                self.parent.extend(up_number[up_block[members[0]]] for members in level.values())
        columns = [
            list(map(number.__getitem__, map(block_of.__getitem__, self.atoms)))
            for number, block_of in zip(self._number, self._block_of)
        ]
        self.paths = list(zip(*columns))
        self.leaf = columns[-1]
        self._times = set(range(1, self.horizon + 1))
        self._widths = list(map(len, self.levels))
        mass = [0] * (self.root + 1)
        for i, m in zip(self.leaf, self.atom_mass):
            mass[i] = m
        for i in range(self.root - 1, -1, -1):
            mass[self.parent[i]] += mass[i]
        self.block_mass = mass[: self.root]

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

    def number(self, n: int, block_id: str) -> int:
        """The flat number of a time-``n`` block."""
        return self._number[n - 1][block_id]

    def block_prob(self, n: int, block_id: str) -> Fraction:
        return Fraction(self.block_mass[self.number(n, block_id)], self.denominator)

    def children(self, n: int, block_id: str) -> tuple[str, ...]:
        """Blocks at time ``n+1`` refining the given time-``n`` block."""
        return self._children[self.number(n, block_id)]

    @cached_property
    def _children(self) -> list[tuple[str, ...]]:
        below: list[list[str]] = [[] for _ in range(self.root + 1)]
        for i, p in enumerate(self.parent):
            below[p].append(self.ids[i])
        return [tuple(ids) for ids in below]

    # -- the flat numbering and the public dicts ------------------------------

    def by_block(self, cells) -> ReadOnly:
        """A per-block list in flat order as ``{n: {block_id: cell}}``, read-only."""
        s, levels = self.starts, enumerate(self.levels, start=1)
        return ReadOnly({n: ReadOnly(zip(level, cells[s[n - 1] : s[n]])) for n, level in levels})

    def fractions(self, table: Table) -> tuple[ReadOnly, ReadOnly]:
        """``table`` as the public dicts: ``({n: {block_id: Fraction}}, {atom: Fraction})``."""
        value = FractionsOver(table.den).__getitem__
        return (
            self.by_block(list(map(value, table.blocks))),
            ReadOnly(zip(self.atoms, map(value, table.atoms))),
        )

    def read(self, table, name: str, infinity=None, value_error=None) -> Union[list, Violation]:
        """Check a ``{n: {block_id: value}}`` table against the space and gather its cells.

        With ``infinity``, an ``{atom: value}`` slot at INFINITY is read after it.  Returns
        the values in flat block order, then the atoms in atom order, or the first Violation
        in that order: a time outside 1..T, then per time a missing time, key or non-exact
        value, then an unknown key; with ``value_error``, a non-exact value raises it
        instead.  Read-only rows of ints and Fractions that list the space's blocks in
        partition order are gathered in one look; anything else is read cell by cell.
        """
        T = self.horizon
        if type(table) is ReadOnly and {*map(type, table)} == {int} and table.keys() == self._times:
            rows = list(map(table.__getitem__, range(1, T + 1)))
            slot = infinity is None or (
                type(infinity) is ReadOnly and infinity.keys() == self.prob.keys()
            )
            sized = {*map(type, rows)} == {ReadOnly} and [*map(len, rows)] == self._widths
            if slot and sized and [*chain.from_iterable(rows)] == self.ids:
                cells = [*chain.from_iterable(map(dict.values, rows))]
                cells += () if infinity is None else map(infinity.__getitem__, self.atoms)
                if {*map(type, cells)} <= {Fraction, int}:  # a bool is neither
                    return cells
        for n in table:
            if isinstance(n, bool) or n not in range(1, T + 1):
                return Violation("OutOfRange", detail=f"{name} has time {n!r} outside 1..{T}")
        rows = [(n, table.get(n), level, name, "block") for n, level in enumerate(self.levels, 1)]
        if infinity is not None:
            rows.append((INFINITY, infinity, self.atoms, "infinity", "atom"))
        cells = []
        for n, row, keys, label, noun in rows:
            if row is None:
                return Violation("Malformed", time=n, detail=f"{label} missing time {n}")
            for key in keys:
                if key not in row:
                    return Violation("Malformed", n, key, f"{label} missing {noun}")
                if not _exact(row[key]):
                    fault = Violation("Malformed", n, key, f"{label} holds a non-exact value")
                    if value_error is None:
                        return fault
                    raise value_error(str(fault), violation=fault)
                cells.append(row[key])
            if len(row) != len(keys):
                unknown = set(row) - set(keys)
                try:
                    first = min(unknown)
                except TypeError:  # keys that do not compare, such as 5 and "zz"
                    first = min(unknown, key=repr)
                return Violation("Malformed", n, first, f"unknown {noun} in {label}")
        return cells

    def recall(self, source, check: Callable) -> Union[Kept, Violation]:
        """``source``'s check, kept while ``source`` lives (a weakref callback drops it).

        Rules, processes and games are read-only, so the same live object of the same type
        is the same input and reuses its kept check.  Otherwise ``check()`` gives the parts,
        which are kept, or the first Violation.
        """
        key = (type(source), id(source))
        kept = self._kept.get(key)
        if kept is not None and kept.ref() is source:
            return kept
        parts = check()
        if isinstance(parts, Violation):
            return parts
        ref = weakref.ref(source, lambda _, memo=self._kept: memo.pop(key, None))
        kept = self._kept[key] = Kept(ref, parts)
        return kept

    def tables(self, *processes: "AdaptedProcess") -> list[Table]:
        """Processes read by ``check_process``, as Tables over one shared denominator."""
        nums, den = integers([*chain.from_iterable(check_process(self, p) for p in processes)])
        B, width = self.root, self.root + len(self.atoms)
        return [
            Table(nums[k : k + B], nums[k + B : k + width], den)
            for k in range(0, len(nums), width)
        ]

    def stop_blocks(self, stops: Iterable[Time]) -> list[Optional[int]]:
        """Per atom, the block its stop index ``stops[j]`` falls in; None for INFINITY.

        Every index must be one of ``times``.
        """
        return list(map(getitem, self._stop_paths, map(self._position.__getitem__, stops)))

    @cached_property
    def _position(self) -> dict[Time, int]:
        """Stop index -> its place on a path: time n at n - 1, INFINITY past the end."""
        return {t: k for k, t in enumerate(self.times)}

    @cached_property
    def _stop_paths(self) -> list[tuple]:
        return [path + (None,) for path in self.paths]

    @cached_property
    def slots(self) -> list[list[int]]:
        """Per stop index in ``times``, each atom's cell in a Table's ``blocks + atoms``."""
        return [*map(list, zip(*self.paths)), list(range(self.root, self.root + len(self.atoms)))]

    # -- passes over the flat numbering ---------------------------------------

    def backward_induction(self, terminal: Sequence, stage: Callable) -> tuple:
        """From the horizon back to time 1: ``(time-0 value, value per block)``.

        Values are weighted by probability: a block's value is P(block) times
        its conditional value, so its continuation is the plain sum of its
        children's values, with no division, and at the horizon
        ``terminal[j]``, the weighted terminal value of the block's atom
        ``j``.  A block's value is ``stage(i, continuation)``; the time-0
        value is the sum over the time-1 blocks.
        """
        below = [0] * (self.root + 1)
        for i, w in zip(self.leaf, terminal):
            below[i] = w
        values = [0] * self.root
        parent = self.parent
        for i in range(self.root - 1, -1, -1):
            values[i] = value = stage(i, below[i])
            below[parent[i]] += value
        return below[self.root], values

    def first_stop(self, stops_at: Callable[[int], bool]) -> dict[str, Time]:
        """Per atom, the first time whose block ``i`` on its path has ``stops_at(i)``.

        INFINITY if there is none.  Blocks below a stop are not asked.
        """
        stopped: list[Time] = [INFINITY] * (self.root + 1)
        for i, p in enumerate(self.parent):
            t = stopped[p]
            stopped[i] = self.depth[i] if t == INFINITY and stops_at(i) else t
        return {a: stopped[i] for a, i in zip(self.atoms, self.leaf)}

    def spent(self, rho: Sequence[int]) -> list[int]:
        """Per block, the flat ``rho`` summed down the path to it, itself included."""
        spent = [0] * (self.root + 1)
        for i, p in enumerate(self.parent):
            spent[i] = spent[p] + rho[i]
        spent.pop()
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

    def __post_init__(self):
        object.__setattr__(self, "values", read_only_rows(self.values))
        object.__setattr__(self, "infinity", read_only(self.infinity))

    def value_at(self, space: FilteredSpace, t: Time, atom: str) -> Fraction:
        if t == INFINITY:
            return self.infinity[atom]
        return self.values[t][space.block_of(t, atom)]


def adapted_process(values, infinity) -> AdaptedProcess:
    """Build an AdaptedProcess, coercing ints/strings to exact Fractions."""
    return AdaptedProcess(
        values=fraction_table(values),
        infinity={a: as_fraction(v) for a, v in infinity.items()},
    )


def constant_process(space: FilteredSpace, value) -> AdaptedProcess:
    """The process equal to ``value`` at every time and at INFINITY."""
    c = as_fraction(value)
    return AdaptedProcess(
        values=space.by_block([c] * space.root),
        infinity={a: c for a in space.atoms},
    )


def check_process(space: FilteredSpace, process: AdaptedProcess) -> list:
    """The process's cells, read once: its blocks in flat order, then its atoms at INFINITY.

    Raises SpaceMismatch unless ``process`` is keyed exactly by the space, and
    ValidationError unless every value is an int or a Fraction, with the first Violation.
    """
    cells = space.read(process.values, "values", process.infinity, ValidationError)
    if not isinstance(cells, Violation):
        return cells
    if cells.time is None or process.values.keys() != space._times:
        message = f"process defined at times {sorted(process.values)}, space has 1..{space.horizon}"
    elif cells.time == INFINITY:
        message = "process INFINITY slot does not match the atom set"
    else:
        message = f"process blocks at time {cells.time} do not match the space"
    raise SpaceMismatch(message, violation=cells)


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
