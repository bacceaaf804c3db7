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
import re
import weakref
from bisect import bisect_left
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from contextlib import suppress
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


#: A rational string: an integer, or an integer over a natural number, in ASCII digits.
RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational(text: str) -> Fraction:
    """``text`` read by ``RATIONAL``: ValueError if it is off the grammar or has more digits
    than the interpreter turns into an int, ZeroDivisionError for a zero denominator."""
    match = RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational 'a/b' or 'a' of ASCII digits: {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or rational string ("a/b", "3") to Fraction.

    Floats are rejected: the whole exact layer depends on no rounding ever
    entering a probability or payoff.  A plain Fraction comes back as it is.
    A string is read by ``rational``, in the grammar of the wire format, so any
    other string raises ValueError ("1/0" raises ZeroDivisionError).
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        return rational(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
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


def fraction_row(row):
    """A ``{key: value}`` row as a read-only ``{key: as_fraction(value)}``; a row that is not a
    mapping as it is, for the rule check or ``check_process`` to report as ``Malformed``."""
    if not isinstance(row, Mapping):
        return row
    return ReadOnly({k: as_fraction(v) for k, v in row.items()})


def fraction_table(table):
    """A per-time block table as read-only ``{n: fraction_row(row)}``, in its own order.
    Its time keys, and a table or a row that is not a mapping, are kept as given, for the
    rule check or ``check_process`` to judge."""
    if not isinstance(table, Mapping):
        return table
    return ReadOnly({n: fraction_row(r) for n, r in table.items()})


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
    where names the block, atom or section at fault, as a string, or a key
    the table should not hold as that key itself, which may be any hashable
    (``5``, say).
    """

    kind: str
    time: Optional[Time] = None
    where: Optional[Hashable] = None
    detail: str = ""

    def __str__(self) -> str:
        parts = []
        if self.time is not None:
            parts.append(f"n={time_label(self.time)}")
        if self.where is not None:
            parts.append(f"at {self.where}")
        suffix = f" ({self.detail})" if self.detail else ""
        return f"{self.kind} {' '.join(parts)}{suffix}".strip()


def is_int(value) -> bool:
    """True iff ``value`` is an int and not a bool, as a time or a time key must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def _exact(value) -> bool:
    return isinstance(value, Fraction) or is_int(value)


def ordered(keys) -> list:
    """``keys`` sorted, or sorted by repr if they do not compare (such as 5 and "zz")."""
    try:
        return sorted(keys)
    except TypeError:
        return sorted(keys, key=repr)


def gather(rows: Sequence, groups: Sequence[Sequence]) -> Optional[list]:
    """Each row's values at its group of keys, ``rows[k].get(key)`` for each ``key`` in
    ``groups[k]``, in order; None unless every row is a mapping holding as many keys as
    its group.

    ``get`` never calls a row's ``__missing__``, so no row is filled in.  A key that a row
    lacks, while it holds another, reads as None: no value a caller accepts."""
    with suppress(LookupError, TypeError, AttributeError):
        cells = [row.get(key) for row, keys in zip(rows, groups) for key in keys]
        if sum(map(len, rows)) == len(cells):
            return cells
    return None


def row_fault(row, keys: Sequence, label: str, noun: str, time=None, exact=True):
    """The first fault of a table that should map exactly ``keys`` to values, or None.

    In order: ``row`` is not a mapping, it misses a key (the first in ``keys``), a value is
    not an int or a Fraction (only if ``exact``), it has a key outside ``keys`` (the least).
    """
    if not isinstance(row, Mapping):
        return Violation("Malformed", time, None, f"{label} is not a mapping")
    missing = next((key for key in keys if key not in row), None)
    if missing is not None:
        return Violation("Malformed", time, missing, f"{label} missing {noun}")
    loose = next((key for key in keys if not _exact(row[key])), None) if exact else None
    if loose is not None:
        return Violation("Malformed", time, loose, f"{label} holds a non-exact value")
    unknown = ordered(set(row).difference(keys))
    if unknown:
        return Violation("Malformed", time, unknown[0], f"unknown {noun} in {label}")
    return None


class Table(NamedTuple):
    """An adapted table over the flat cell numbering, in integers over one denominator.

    ``cells[k] / den`` is the value on cell ``k`` of ``FilteredSpace.cell_ids``:
    block ``i`` at its time for ``k = i < B``, and atom ``j`` at INFINITY for
    ``k = B + j``.  Densities (stop mass per block, never-stop mass per atom)
    and payoff processes both take this form inside the exact passes;
    ``FilteredSpace.fractions`` turns one back into the public Fraction dicts.
    A rule's density Table (``stopping.density_of``) is in lowest terms,
    ``gcd(den, *cells) == 1``, so two rules have equal densities exactly
    when their Tables are equal; a process Table's denominator is the lcm
    of its values' and is shared with the processes read beside it.
    """

    cells: list
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

    __slots__ = ("ref", "parts", "derived", "crossed", "__weakref__")

    def __init__(self, ref: weakref.ref, parts):
        self.ref, self.parts, self.derived = ref, parts, {}
        self.crossed = weakref.WeakKeyDictionary()

    def derive(self, make: Callable, space: "FilteredSpace", *args):
        """``make(self, space, *args)``, built on the first call with this ``make`` and these
        ``args`` and shared after.  A result keyed by another check, a Kept first in ``args``,
        is kept in ``crossed`` under that check's weak key, so it dies with either check."""
        table, key = self.derived, (make, *args)
        if args and type(args[0]) is Kept:
            table, key = self.crossed.setdefault(args[0], {}), (make, *args[1:])
        value = table.get(key)
        if value is None:
            value = table[key] = make(self, space, *args)
        return value


class FilteredSpace:
    """A scenario tree, checked and numbered once from its node list.

    Each node is a mapping with a string ``id`` and a ``parent`` (``None``
    or absent for the root); leaves also carry ``prob``, a rational.  The
    time-``n`` blocks are the depth-``n`` nodes, each the set of leaves
    below it, and the horizon is the common leaf depth.  So block ids are
    node ids and the horizon blocks are the atoms, and every level
    partitions the atoms, refines the level before it and, at the horizon,
    separates them: once the nodes are checked there is nothing left to
    check.  ``levels[n-1]`` maps each time-``n`` block id to its member
    atoms; ``prob``, in atom order, and the ``levels`` rows are read-only,
    as the results kept from them assume.  The queries by time (``level``,
    ``blocks``, ``members``, ``block_of``, ``number``, ``block_prob``,
    ``children``) refuse a time outside 1..T, or one that is not an int,
    with KeyError: each goes through ``level``, which judges it by ``is_time``.

    The blocks are numbered 0..B-1 in breadth-first order, children in
    the order the list gives them, so each level is a run of numbers and
    each block comes after its parent.  The exact passes run over that
    flat numbering:

    * ``ids[i]`` and ``depth[i]`` are block ``i``'s id and time;
    * ``parent[i]`` is its parent's number, ``root`` (= B) at time 1, so a
      pass keeps the root's state in the last slot of a list of B + 1;
    * ``starts[n-1]:starts[n]`` are the time-``n`` blocks;
    * ``slots[k][j]`` is atom ``j``'s cell at the stop index ``times[k]``:
      its time-``n`` block at ``k = n - 1`` and its own cell B + j at
      INFINITY, so ``slots[:-1]`` are the atoms' paths, time by time, and
      ``leaf`` is ``slots[T - 1]``;
    * ``cell_ids`` are the ids of the cells every exact pass numbers: the
      B blocks, each at its own time, then atom ``j`` at INFINITY as cell
      B + j.  A Table, the cells ``read`` returns and a pure rule's stops
      (``stop_cells``) all use this numbering, and ``cell_size[k]`` is cell
      ``k``'s count of atoms;
    * ``block_mass[i] / denominator`` and ``atom_mass[j] / denominator``
      are the probabilities, with ``denominator`` the lcm of the atoms',
      and ``cell_mass`` is ``block_mass + atom_mass``, per cell.
    """

    def __init__(self, tree_description):
        if not isinstance(tree_description, Iterable):
            raise StructureError(f"the tree is not a node list: {type(tree_description).__name__}")
        nodes, children, root = {}, {}, None
        for node in tree_description:
            if not isinstance(node, Mapping) or not isinstance(node.get("id"), str):
                raise StructureError(f"every node must be a mapping with a string 'id', got {node!r}")
            parent = node.get("parent")
            if parent is not None and not isinstance(parent, str):
                raise StructureError(f"node {node['id']!r} has a non-string parent {parent!r}")
            if node["id"] in nodes:
                raise StructureError(f"duplicate node id {node['id']!r}")
            nodes[node["id"]], children[node["id"]] = node, []
        for node_id, node in nodes.items():
            parent = node.get("parent")
            if parent is None:
                if root is not None:
                    raise StructureError("more than one root node")
                root = node_id
            elif parent not in nodes:
                raise StructureError(f"node {node_id!r} has unknown parent {parent!r}")
            else:
                children[parent].append(node_id)
        if root is None:
            raise StructureError("no root node (one node must have parent null)")

        B = self.root = len(nodes) - 1
        order, depth, self.parent = [root], [0], []
        for k, node_id in enumerate(order):  # breadth first: ``order`` grows as it is read
            below = children[node_id]
            order += below
            depth += [depth[k] + 1] * len(below)
            self.parent += [k - 1 if k else B] * len(below)
        if len(order) != len(nodes):
            raise StructureError("tree contains nodes unreachable from the root")
        # depths never fall in breadth-first order, so the first leaf is the shallowest
        T = self.horizon = next(d for d, i in zip(depth, order) if not children[i])
        if depth[-1] != T:
            d = next(d for d, i in zip(depth, order) if d != T and not children[i])
            raise StructureError(
                f"leaves at unequal depths ({d} vs {T}); all must sit at the horizon"
            )
        if T < 1:
            raise StructureError("the root cannot be a leaf; horizon must be at least 1")
        for node_id in order:
            has_prob = nodes[node_id].get("prob") is not None
            if children[node_id] and has_prob:
                raise StructureError(f"internal node {node_id!r} must not carry a probability")
            if not children[node_id] and not has_prob:
                raise StructureError(f"leaf {node_id!r} is missing its probability")

        self.ids, self.depth = order[1:], depth[1:]
        self.starts = [bisect_left(self.depth, n) for n in range(1, T + 2)]
        self.leaf = list(range(self.starts[-2], B))
        self.atoms = tuple(self.ids[self.starts[-2] :])
        self.prob = ReadOnly({a: as_fraction(nodes[a]["prob"]) for a in self.atoms})
        self.atom_mass, self.denominator = integers(list(self.prob.values()))
        for a, m in zip(self.atoms, self.atom_mass):
            if m <= 0:
                raise ZeroProbabilityError(f"atom {a!r} has probability {self.prob[a]} <= 0")
        if sum(self.atom_mass) != self.denominator:
            total = sum(self.prob.values())
            raise ProbabilitySumError(f"atom probabilities sum to {total}, expected 1")

        slots = [[*range(B, B + len(self.atoms))], self.leaf]  # INFINITY's, then time T's
        for _ in range(T - 1):
            slots.append(list(map(self.parent.__getitem__, slots[-1])))
        self.slots = slots[::-1]
        # per block: its mass, its count of atoms and its first atom, which its first child,
        # the last of its children met going back, hands it
        mass, count, first = [0] * (B + 1), [0] * (B + 1), [0] * (B + 1)
        for j, (i, m) in enumerate(zip(self.leaf, self.atom_mass)):
            mass[i], count[i], first[i] = m, 1, j
        for i in range(B - 1, -1, -1):
            p = self.parent[i]
            mass[p], count[p], first[p] = mass[p] + mass[i], count[p] + count[i], first[i]
        self.block_mass = mass[:B]
        self.levels = tuple(
            ReadOnly((self.ids[i], self.atoms[first[i] : first[i] + count[i]]) for i in range(s, e))
            for s, e in zip(self.starts, self.starts[1:])
        )
        self.cell_size = count[:B] + [1] * len(self.atoms)
        self._number = dict(zip(self.ids, range(B)))
        self._children = children
        self.cell_ids = self.ids + [*self.atoms]
        self.cell_mass = self.block_mass + self.atom_mass
        self._groups = (*self.levels, self.atoms)  # the keys of each row ``read`` gathers
        #: ``recall``'s kept checks, by the type and id of their input
        self._kept: dict = {}

    def __getstate__(self) -> dict:
        """A copy or a pickle starts with no kept checks: each belongs to this space's inputs."""
        return {**self.__dict__, "_kept": {}}

    # -- structural queries ---------------------------------------------------

    @property
    def times(self) -> tuple[Time, ...]:
        """All stop indices: 1..T followed by INFINITY."""
        return tuple(range(1, self.horizon + 1)) + (INFINITY,)

    def is_time(self, t) -> bool:
        """True iff ``t`` is a stop index: an int (not a bool) in 1..T, or INFINITY."""
        finite = is_int(t) and 1 <= t <= self.horizon
        return finite or t == INFINITY

    def level(self, n: int) -> ReadOnly:
        """The partition at time ``n``, ``levels[n-1]``: KeyError unless ``n`` is a finite
        ``is_time``."""
        if n == INFINITY or not self.is_time(n):
            raise KeyError(n)
        return self.levels[n - 1]

    def blocks(self, n: int) -> tuple[str, ...]:
        """Block ids of the partition at time ``n``."""
        return tuple(self.level(n))

    def members(self, n: int, block_id: str) -> tuple[str, ...]:
        return self.level(n)[block_id]

    def block_of(self, n: int, atom: str) -> str:
        """The time-``n`` block containing ``atom``."""
        self.level(n)
        j = self.number(self.horizon, atom) - self.starts[-2]
        return self.ids[self.slots[n - 1][j]]

    def number(self, n: int, block_id: str) -> int:
        """The flat number of a time-``n`` block."""
        if block_id not in self.level(n):
            raise KeyError(block_id)
        return self._number[block_id]

    def block_prob(self, n: int, block_id: str) -> Fraction:
        return Fraction(self.block_mass[self.number(n, block_id)], self.denominator)

    def children(self, n: int, block_id: str) -> tuple[str, ...]:
        """Blocks at time ``n+1`` refining the given time-``n`` block."""
        self.number(n, block_id)
        return tuple(self._children[block_id])

    # -- the flat numbering and the public dicts ------------------------------

    def by_block(self, cells) -> ReadOnly:
        """A per-block list in flat order as ``{n: {block_id: cell}}``, read-only."""
        s, levels = self.starts, enumerate(self.levels, start=1)
        return ReadOnly({n: ReadOnly(zip(level, cells[s[n - 1] : s[n]])) for n, level in levels})

    def fractions(self, table: Table) -> tuple[ReadOnly, ReadOnly]:
        """``table`` as the public dicts: ``({n: {block_id: Fraction}}, {atom: Fraction})``."""
        values = list(map(FractionsOver(table.den).__getitem__, table.cells))
        return self.by_block(values), ReadOnly(zip(self.atoms, values[self.root :]))

    def read(self, table, name: str, infinity=None, slot="infinity") -> Union[list, Violation]:
        """Check a ``{n: {block_id: value}}`` table against the space and gather its cells.

        The ``{atom: value}`` table ``infinity`` is read after it as the INFINITY slot named
        ``slot``; with ``slot`` None there is none.  Returns the values in flat block order,
        then the atoms in atom order (the flat cell numbering), or the first Violation in that
        order: a table that is not a mapping, a time that is not an int (``is_int``) in 1..T,
        such as ``1.0`` or ``True``, then per time a missing time and the row's first fault
        (``row_fault``).  A table that fits the space is gathered by key in one look, whatever
        the order of its times and keys and whatever mappings hold them; only a table that
        does not fit is walked, to name its fault.  Both refuse the same time keys.
        """
        T, cells = self.horizon, None
        with suppress(LookupError, TypeError, AttributeError):
            rows = [*map(table.get, range(1, T + 1))] + ([] if slot is None else [infinity])
            # the set of key types settles plain int keys at C speed; a subclass takes ``is_int``
            if len(table) == T and ({*map(type, table)} == {int} or all(map(is_int, table))):
                cells = gather(rows, self._groups)
        if cells and ({*map(type, cells)} <= {Fraction, int} or all(map(_exact, cells))):
            return cells
        if not isinstance(table, Mapping):
            return Violation("Malformed", detail=f"{name} is not a mapping")
        for n in table:
            if not is_int(n) or n not in range(1, T + 1):
                return Violation("OutOfRange", detail=f"{name} has time {n!r} outside 1..{T}")
        for n, level in enumerate(self.levels, start=1):
            if table.get(n) is None:
                return Violation("Malformed", time=n, detail=f"{name} missing time {n}")
            fault = row_fault(table[n], level, name, "block", n)
            if fault is not None:
                return fault
        return None if slot is None else row_fault(infinity, self.atoms, slot, "atom", INFINITY)

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

        def drop(_, memo=self._kept):
            memo.pop(key, None)

        kept = self._kept[key] = Kept(weakref.ref(source, drop), parts)
        return kept

    def tables(self, *processes: "AdaptedProcess") -> list[Table]:
        """Processes read by ``check_process``, as Tables over one shared denominator."""
        nums, den = integers([*chain.from_iterable(check_process(self, p) for p in processes)])
        width = len(self.cell_ids)
        return [Table(nums[k : k + width], den) for k in range(0, len(nums), width)]

    def stop_cells(self, stops: Iterable[Time]) -> list[int]:
        """Per atom, the cell its stop index ``stops[j]`` falls in: its time's block, or its
        own cell B + j for INFINITY.  Every index must be one of ``times``.
        """
        return list(map(getitem, map(self._slot.__getitem__, stops), range(len(self.atoms))))

    @cached_property
    def _slot(self) -> dict[Time, list[int]]:
        """Stop index -> its row of ``slots``."""
        return dict(zip(self.times, self.slots))

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
    """The FilteredSpace of a node list with parent links (see ``FilteredSpace``)."""
    return FilteredSpace(tree_description)


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
        infinity=fraction_row(infinity),
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
    cells = space.read(process.values, "values", process.infinity)
    if not isinstance(cells, Violation):
        return cells
    if cells.detail.endswith("non-exact value"):
        raise ValidationError(str(cells), violation=cells)
    if not isinstance(process.values, Mapping):
        message = f"process {cells.detail}"
    elif cells.time is None or process.values.keys() != set(range(1, space.horizon + 1)):
        message = f"process defined at times {ordered(process.values)}, space has 1..{space.horizon}"
    elif cells.time == INFINITY:
        message = "process INFINITY slot does not match the atom set"
    else:
        message = f"process blocks at time {cells.time} do not match the space"
    raise SpaceMismatch(message, violation=cells)

