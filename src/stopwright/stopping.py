"""The four stopping-rule representations and their exact detailed distributions.

A stopping rule can be written four ways:

* pure:       one stop index per atom, decided by information available
              at the moment of stopping;
* randomized: per-time stop masses that sum to one across times and the
              never-stop slot;
* behavior:   per-time conditional stop probabilities (hazards), given
              survival so far;
* mixed:      an external uniform draw selects one pure rule from a
              finite weighted list.

All four induce the same kind of object: a joint law of (outcome, stop
index), held here as a ``StoppingMeasure`` mass table.  Two rules are
*equivalent* when those tables coincide, and equivalence is decidable by
exact rational equality.  ``densities`` reduces every representation to
one canonical form, the randomized one, and the mass table, payoffs,
equivalence, conversions and game payoffs are all read off it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, le, mul
from typing import Callable, Hashable, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import ValidationError
from .space import (
    INFINITY,
    FilteredSpace,
    FractionsOver,
    Kept,
    ReadOnly,
    Table,
    Time,
    Violation,
    _exact,
    as_fraction,
    denominator_of,
    fraction_row,
    fraction_table,
    gather,
    integers,
    is_int,
    numerator_of,
    ordered,
    read_only,
    read_only_rows,
    row_fault,
    time_label,
)


@dataclass(frozen=True)
class PureStoppingTime:
    """Stop index per atom; {stop = n} must be a union of time-``n`` blocks."""

    stop: Mapping[str, Time]

    def __post_init__(self):
        object.__setattr__(self, "stop", read_only(self.stop))


@dataclass(frozen=True)
class RandomizedStoppingTime:
    """Per-time stop masses, block-keyed, plus the never-stop mass per atom."""

    rho: Mapping[int, Mapping[str, Fraction]]
    rho_inf: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "rho", read_only_rows(self.rho))
        object.__setattr__(self, "rho_inf", read_only(self.rho_inf))


@dataclass(frozen=True)
class BehaviorStoppingTime:
    """Per-time conditional stop probabilities (hazards), block-keyed."""

    beta: Mapping[int, Mapping[str, Fraction]]

    def __post_init__(self):
        object.__setattr__(self, "beta", read_only_rows(self.beta))


@dataclass(frozen=True)
class MixedStoppingTime:
    """Piecewise-constant mixture of pure rules over the unit interval.

    ``breakpoints`` is the full grid 0 = r_0 < r_1 < ... < r_K = 1; section
    ``k`` applies when the external draw lands in (r_k-1, r_k].
    """

    breakpoints: tuple[Fraction, ...]
    sections: tuple[PureStoppingTime, ...]

    def __post_init__(self):
        for name in ("breakpoints", "sections"):  # a field that is no sequence is kept as it is
            with suppress(TypeError):
                object.__setattr__(self, name, tuple(getattr(self, name)))

    def weights(self) -> tuple[Fraction, ...]:
        """Interval lengths, one per section."""
        return tuple(
            self.breakpoints[k + 1] - self.breakpoints[k] for k in range(len(self.sections))
        )


RandomStoppingTime = Union[
    PureStoppingTime, RandomizedStoppingTime, BehaviorStoppingTime, MixedStoppingTime
]


def rows_of(mass) -> Mapping:
    """``mass`` if it is a mapping of mappings, else ValidationError: the one test a measure's
    queries make of its table before they read it."""
    if not isinstance(mass, Mapping) or not all(isinstance(r, Mapping) for r in mass.values()):
        raise ValidationError("mass table is not a mapping of mappings")
    return mass


@dataclass(frozen=True)
class StoppingMeasure:
    """Mass table over (atom, stop index), read-only as a rule's tables are.

    A *stopping measure* additionally projects to the space's probability
    on atoms and has time-``n`` densities constant on time-``n`` blocks;
    ``is_stopping_measure`` decides that.  The table itself may hold any
    candidate masses so that bad candidates can be represented and
    rejected.
    """

    mass: Mapping[str, Mapping[Time, Fraction]]

    def __post_init__(self):
        object.__setattr__(self, "mass", read_only_rows(self.mass))

    def total_mass(self) -> Fraction:
        """The sum of every mass.  Raises ValidationError unless the table is a mapping of
        mappings (``rows_of``), as each query here does."""
        return sum(
            (m for row in rows_of(self.mass).values() for m in row.values()), start=Fraction(0)
        )

    def density(self, space: FilteredSpace, atom: str, t: Time) -> Fraction:
        """Stop mass at (atom, t) relative to the atom's probability.  Raises ValidationError
        unless ``atom`` is an atom of the table and of ``space``, and ``t`` a time of its row
        (``_check_time``)."""
        rows = rows_of(self.mass)
        if not isinstance(atom, Hashable) or atom not in rows or atom not in space.prob:
            raise ValidationError(f"atom {atom!r} is not an atom of the space")
        self._check_time(t, [atom])
        return self.mass[atom][t] / space.prob[atom]

    def event_mass(self, event, t: Time) -> Fraction:
        """Mass of ``event x {t}``.  Raises ValidationError, naming the least, unless every
        atom of ``event`` is an atom of the table, and then unless ``t`` is a time of their
        rows, or of every row for an empty event (``_check_time``)."""
        try:
            event = [*event]
            unknown = ordered(set(event).difference(rows_of(self.mass)))
        except TypeError:  # not iterable, or a member that is not hashable
            raise ValidationError(f"event must be an iterable of atoms, got {event!r}") from None
        if unknown:
            raise ValidationError(f"event atom {unknown[0]!r} is not an atom of the space")
        self._check_time(t, event or self.mass)
        return sum((self.mass[a][t] for a in event), start=Fraction(0))

    def _check_time(self, t, atoms) -> None:
        """Raise ValidationError unless ``t`` is an int (not a bool) or INFINITY that keys the
        row of each of ``atoms``: ``1.0`` and ``True`` would find time 1's mass."""
        if not (is_int(t) or t == INFINITY) or not all(t in self.mass[a] for a in atoms):
            raise ValidationError(f"time must be an int time of the table or INFINITY, got {t!r}")


# -- builders (coerce ints/strings to Fraction, fill dense tables) ------------


def pure(stop: Mapping[str, Time]) -> PureStoppingTime:
    """A pure rule; its class keeps a mapping read-only and anything else as it is."""
    return PureStoppingTime(stop=stop)


def randomized(rho, rho_inf) -> RandomizedStoppingTime:
    return RandomizedStoppingTime(
        rho=fraction_table(rho),
        rho_inf=fraction_row(rho_inf),
    )


def behavior(beta) -> BehaviorStoppingTime:
    return BehaviorStoppingTime(beta=fraction_table(beta))


def mixed(breakpoints, sections) -> MixedStoppingTime:
    """A mixed rule of exact breakpoints and pure sections, a section given as its stop table
    made pure.  A field that is not iterable goes to the class as it is, for the check to
    report as ``Malformed``."""
    if isinstance(breakpoints, Iterable):
        breakpoints = tuple(map(as_fraction, breakpoints))
    if isinstance(sections, Iterable):
        sections = tuple(s if isinstance(s, PureStoppingTime) else pure(s) for s in sections)
    return MixedStoppingTime(breakpoints=breakpoints, sections=sections)


def stopping_measure(mass, space: FilteredSpace) -> StoppingMeasure:
    """Dense mass table from possibly sparse input; missing cells become 0.  A table or a row
    that is not a mapping, or mass at an atom outside the space or at a key that is not one of
    its times (``is_time``), is refused with ValidationError."""
    if not isinstance(mass, Mapping):
        raise ValidationError("mass table is not a mapping")
    rows = [mass.get(atom, {}) for atom in space.atoms]
    for atom, row in zip(space.atoms, rows):
        if not isinstance(row, Mapping):
            raise ValidationError(f"mass table row at {atom!r} is not a mapping")
    table = [ReadOnly({t: as_fraction(row.get(t, 0)) for t in space.times}) for row in rows]
    unknown = set(mass) - set(space.atoms)
    if unknown:
        raise ValidationError(f"mass table references unknown atoms {sorted(unknown)}")
    for atom, row in zip(space.atoms, rows):
        stray = [t for t in row if not space.is_time(t)]
        if stray:
            raise ValidationError(f"mass table references unknown time {stray[0]!r} at {atom!r}")
    return StoppingMeasure(mass=ReadOnly(zip(space.atoms, table)))


# -- validation ----------------------------------------------------------------


def _unit_fault(space: FilteredSpace, cells: list, nums, dens, name: str, slot=None):
    """None if every value ``nums[k] / dens[k]`` of the read ``cells`` lies in [0, 1], else
    the OutOfRange Violation of the first that does not: a block's, or one in the INFINITY
    slot named ``slot``."""
    if min(nums) >= 0 and all(map(le, nums, dens)):
        return None
    i = next(k for k, (p, q) in enumerate(zip(nums, dens)) if not 0 <= p <= q)
    n, label = (space.depth[i], name) if i < space.root else (INFINITY, slot)
    return Violation("OutOfRange", n, space.cell_ids[i], f"{label}={Fraction(cells[i])}")


def _check_behavior(eta: BehaviorStoppingTime, space: FilteredSpace) -> Union[Violation, list]:
    """The first Violation, or the hazards in flat order."""
    cells = space.read(eta.beta, "beta", slot=None)
    if isinstance(cells, Violation):
        return cells
    nums, dens = list(map(numerator_of, cells)), list(map(denominator_of, cells))
    return _unit_fault(space, cells, nums, dens, "beta") or cells


def _check_pure(eta: PureStoppingTime, space: FilteredSpace) -> Union[Violation, list]:
    """The first Violation, or per atom its stop cell (``FilteredSpace.stop_cells``): the
    number of its stop block, or its own cell if it never stops.

    The stop table is gathered by atom in one look (``gather``) and walked only to name a
    fault: first a key fault (``row_fault``), then the first atom whose index is not a time:
    an int (not a bool) in 1..T, or INFINITY.  That index is the Violation's ``time`` only if
    it is an int or a float off the integers (``2.5``, nan): ``1.0`` would read as time 1.
    ``{stop = n}`` splits a time-``n`` block exactly when fewer atoms stop in it than it
    holds, since only its own atoms can (an atom's own cell holds it alone, so never splits);
    the first split block in flat order (by time, then partition order) is reported.
    """
    cells = gather([eta.stop], [space.atoms])
    timed = cells is not None and all(
        map(space.is_time, {*cells} if {*map(type, cells)} <= {int, float} else cells)
    )
    if not timed:
        # an atom the table lacks reads as None, no time either: key faults come first
        fault = row_fault(eta.stop, space.atoms, "stop", "atom", exact=False)
        if fault is not None or cells is None:
            return fault
        atom, t = next((a, t) for a, t in zip(space.atoms, cells) if not space.is_time(t))
        shown = time_label(t) if is_int(t) else repr(t)
        return Violation(
            "OutOfRange",
            time=t if type(t) is int or type(t) is float and not t.is_integer() else None,
            where=atom,
            detail=f"stop index {shown} outside 1..{space.horizon}, inf",
        )
    stops = space.stop_cells(cells)
    split = [i for i, k in Counter(stops).items() if k != space.cell_size[i]]
    if split:
        n, block_id = space.depth[min(split)], space.ids[min(split)]
        return Violation(
            "NotAdapted", time=n, where=block_id, detail=f"{{stop={n}}} splits block {block_id}"
        )
    return stops


def _check_randomized(eta: RandomizedStoppingTime, space: FilteredSpace) -> Union[Violation, tuple]:
    """The first Violation, or ``(table, spent)``: the rule's density Table and the stop
    masses summed down each path, in integers over its denominator, from the sum check's
    one spent pass.

    ``rho`` and ``rho_inf`` are read together into the flat cell numbering and range-checked
    in integers over their one denominator, which the sum check then compares with each
    path's spent and never-stop masses.  Once it passes, those cells are the density Table."""
    cells = space.read(eta.rho, "rho", eta.rho_inf, "rho_inf")
    if isinstance(cells, Violation):
        return cells
    nums, den = integers(cells)
    fault = _unit_fault(space, cells, nums, itertools.repeat(den), "rho", "rho_inf")
    if fault is not None:
        return fault
    spent = space.spent(nums)
    for atom, i, never in zip(space.atoms, space.leaf, nums[space.root :]):
        if spent[i] + never != den:
            total = Fraction(spent[i] + never, den)
            return Violation("SumNotOne", where=atom, detail=f"stop masses sum to {total}")
    return Table(nums, den), spent


def _check_mixed(eta: MixedStoppingTime, space: FilteredSpace) -> Union[Violation, tuple]:
    """The first Violation, or ``(stops, weights, den)``: each section's stop cells and
    its weight over ``den``.  Each section costs O(atoms); the first bad one is reported."""
    bps = eta.breakpoints
    if type(bps) is not tuple or type(eta.sections) is not tuple:
        return Violation("Malformed", detail="breakpoints and sections must be sequences")
    if len(bps) < 2 or len(eta.sections) != len(bps) - 1:
        return Violation(
            "Malformed",
            detail=f"{len(eta.sections)} sections for {len(bps)} breakpoints",
        )
    if not all(map(_exact, bps)):
        return Violation("Malformed", detail="non-exact breakpoint")
    if bps[0] != 0 or bps[-1] != 1:
        return Violation("Malformed", detail="breakpoints must start at 0 and end at 1")
    cuts, den = integers(bps)
    weights = [b - a for a, b in zip(cuts, cuts[1:])]
    if min(weights) <= 0:
        return Violation("Malformed", detail="breakpoints must increase strictly")
    stops = []
    for k, section in enumerate(eta.sections):
        if not isinstance(section, PureStoppingTime):
            detail = f"a {type(section).__name__} is not a pure rule"
            return Violation("SectionNotStoppingTime", where=f"sections[{k}]", detail=detail)
        inner = _check_pure(section, space)
        if isinstance(inner, Violation):
            return Violation(
                "SectionNotStoppingTime",
                time=inner.time,
                where=f"sections[{k}]",
                detail=str(inner),
            )
        stops.append(inner)
    return stops, weights, den


def validate(eta: RandomStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    """Check every invariant of the representation; None means valid.

    Returns the first violated clause as a structured ``Violation`` rather
    than raising, so candidates can be inspected without try/except.
    """
    kept = _checked(eta, space)
    return kept if isinstance(kept, Violation) else None


def check(eta: RandomStoppingTime, space: FilteredSpace) -> Kept:
    """A valid rule's kept check.  Its ``parts`` are in the flat cell numbering: per atom its
    stop cell (pure), ``(table, spent)``, its density Table and its stop masses summed down
    each path (randomized), the hazards in flat block order (behavior) or ``(stops, weights,
    den)``, per section its stop cells (mixed).  Raises ValidationError with the first
    Violation for an invalid rule.
    """
    kept = _checked(eta, space)
    if isinstance(kept, Violation):
        raise ValidationError(str(kept), violation=kept)
    return kept


def _checked(eta, space: FilteredSpace) -> Union[Kept, Violation]:
    """``eta``'s check, kept by the space while ``eta`` lives (``FilteredSpace.recall``)."""
    inspect = _kind(eta)[0]
    return space.recall(eta, lambda: inspect(eta, space))


# -- the canonical form -----------------------------------------------------------


def density_table(eta: RandomStoppingTime, space: FilteredSpace) -> Table:
    """``densities`` as a Table, the form the exact passes read, built once from ``check``'s parts."""
    return check(eta, space).derive(density_of, space)


def density_of(kept: Kept, space: FilteredSpace) -> Table:
    """A valid rule's density Table, reduced from its kept check's parts, in lowest terms:
    ``gcd(den, *cells) == 1``, so equal densities are equal Tables.  A randomized or pure
    rule's table already is (``integers`` takes the lcm of reduced denominators); the
    behavior and mixed builders end with one gcd pass (``_lowest``)."""
    return _kind(kept.ref())[1](kept.parts, space)


def _survival(hazards: list, space: FilteredSpace) -> Table:
    """Survive past 1..n-1, then stop at n: the survival carried down the tree in integers.

    The denominator is the product over times of the lcm of the
    denominators of that time's hazards that can act, so every product
    divides exactly.  A hazard below a sure stop (a hazard of 1 on the
    path) meets no survival and is left out of the lcm.  The carry is not
    reduced on the way down; the finished table is, once.
    """
    reached = [True] * (space.root + 1)
    for i, p in enumerate(space.parent):
        reached[i] = reached[p] and hazards[i].numerator != hazards[i].denominator
    den = 1
    for n in range(space.horizon):
        level = range(space.starts[n], space.starts[n + 1])
        den *= math.lcm(*{hazards[i].denominator for i in level if reached[space.parent[i]]})
    alive = [0] * space.root + [den]
    rho = [0] * space.root
    for i, p in enumerate(space.parent):
        left = alive[p]
        h = hazards[i]
        if left and h.numerator:
            rho[i] = stop = left * h.numerator // h.denominator
            left -= stop
        alive[i] = left
    return _lowest(rho + [alive[i] for i in space.leaf], den)


def _sections(sections, weights, den: int, space: FilteredSpace) -> Table:
    """Weighted pure rules summed per stop cell: a block or a never-stopping atom."""
    cells = [0] * len(space.cell_ids)
    for stops, w in zip(sections, weights):
        for i in set(stops):
            cells[i] += w
    return _lowest(cells, den)


def _lowest(cells: list, den: int) -> Table:
    """``cells`` over ``den`` as a Table in lowest terms, by one gcd pass over the whole table."""
    g = math.gcd(den, *cells)
    return Table(cells, den) if g == 1 else Table([c // g for c in cells], den // g)


#: Per rule type: its check (the first Violation, or the parts it built) and their reduction.
_KINDS = {
    PureStoppingTime: (_check_pure, lambda stops, space: _sections([stops], [1], 1, space)),
    RandomizedStoppingTime: (_check_randomized, lambda parts, space: parts[0]),
    BehaviorStoppingTime: (_check_behavior, _survival),
    MixedStoppingTime: (_check_mixed, lambda parts, space: _sections(*parts, space)),
}


def _kind(eta) -> tuple:
    """``eta``'s check and reduction: the one dispatch on rule type."""
    kind = _KINDS.get(type(eta))
    if kind is None:
        raise TypeError(f"not a stopping rule: {type(eta).__name__}")
    return kind


class StopMass(NamedTuple):
    """A rule's stop mass kept as its support: ``cells[k] / den`` is the mass on cell
    ``numbers[k]``, for exactly the cells with nonzero mass, in increasing cell order.

    ``gather(table.cells)`` reads a process or fold Table at ``numbers``, in that order;
    it is ``None`` when the support is every cell, and the Table's own list is read as it
    is.
    """

    cells: list
    numbers: list
    gather: Optional[Callable]
    den: int


def mass_of(kept: Kept, space: FilteredSpace) -> StopMass:
    """A valid rule's stop mass as its support (``StopMass``), derived once beside its density
    Table: per cell, the cell's mass (``FilteredSpace.cell_mass``) times the rule's density
    there, kept on the cells where that is nonzero.  A payoff is linear in it, so each pairing
    with a process or fold Table is one two-way integer sum over the support."""
    d = kept.derive(density_of, space)
    mass = list(map(mul, space.cell_mass, d.cells))
    numbers = list(itertools.compress(range(len(mass)), mass))
    if len(numbers) == len(mass):
        gather = None
    elif len(numbers) == 1:  # an itemgetter of one index returns the item, not a sequence
        gather = itemgetter(slice(numbers[0], numbers[0] + 1))
    else:
        gather = itemgetter(*numbers)
    cells = list(itertools.compress(mass, mass))
    return StopMass(cells, numbers, gather, space.denominator * d.den)


def densities(eta: RandomStoppingTime, space: FilteredSpace) -> RandomizedStoppingTime:
    """The rule's canonical form: stop mass per block, never-stop mass per atom.

    Every representation reduces to this randomized form, and everything
    observable about a rule (its mass table, payoffs, equivalence, games)
    is read off it.  Validates ``eta`` first; the result holds Fractions
    keyed exactly by the space's blocks, times and atoms, read-only and shared by every call.
    """
    return check(eta, space).derive(_randomized, space)


def _randomized(kept: Kept, space: FilteredSpace) -> RandomizedStoppingTime:
    rho, rho_inf = space.fractions(kept.derive(density_of, space))
    return RandomizedStoppingTime(rho=rho, rho_inf=rho_inf)


def detailed_distribution(eta: RandomStoppingTime, space: FilteredSpace) -> StoppingMeasure:
    """The exact joint law of (outcome, stop index) induced by ``eta``, read-only and shared."""
    return check(eta, space).derive(_measure, space)


def _measure(kept: Kept, space: FilteredSpace) -> StoppingMeasure:
    d = kept.derive(density_of, space)
    value = FractionsOver(space.denominator * d.den).__getitem__
    cell = d.cells.__getitem__
    columns = [map(value, map(mul, space.atom_mass, map(cell, slots))) for slots in space.slots]
    rows = map(ReadOnly, map(zip, itertools.repeat(space.times), zip(*columns)))
    return StoppingMeasure(mass=ReadOnly(zip(space.atoms, rows)))


def equivalent(
    eta1: RandomStoppingTime, eta2: RandomStoppingTime, space: FilteredSpace
) -> bool:
    """True iff the two rules induce identical mass tables (exact equality).

    Every atom has positive probability, so equal mass tables are equal
    densities, and density Tables in lowest terms are equal exactly when
    the densities are: the test is one comparison of two integer lists.
    """
    return density_table(eta1, space) == density_table(eta2, space)


# -- enumeration -----------------------------------------------------------------


def enumerate_pure_stopping_times(space: FilteredSpace) -> list[PureStoppingTime]:
    """All pure stopping rules of the space, built level by level from the horizon.

    At each block the rule either stops everyone now or defers to an
    independent choice per child block; at the horizon the options are
    "stop at T" and "never".  A block's option is the tuple of its atoms'
    stop indices, and a block's atoms are its children's atoms in order,
    so an option below a block is its children's options joined.  The
    root is the block above time 1, with no option to stop.  Intended for
    small spaces; the count grows exponentially with the tree.
    """
    options = {i: [(space.horizon,), (INFINITY,)] for i in space.leaf}
    for n in range(space.horizon - 1, -1, -1):
        below: dict[int, list] = {}  # per time-n block, its children's options, in order
        for i in range(space.starts[n], space.starts[n + 1]):
            below.setdefault(space.parent[i], []).append(options[i])
        options = {}
        for p, children in below.items():
            joined = [sum(combo, ()) for combo in itertools.product(*children)]
            options[p] = [(n,) * space.cell_size[p], *joined] if n else joined
    return [PureStoppingTime(ReadOnly(zip(space.atoms, stops))) for stops in options[space.root]]
