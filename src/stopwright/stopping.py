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
from dataclasses import dataclass
from fractions import Fraction
from operator import le, mul
from typing import Mapping, Optional, Union

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
    fraction_table,
    gather,
    integers,
    numerator_of,
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
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        object.__setattr__(self, "sections", tuple(self.sections))

    def weights(self) -> tuple[Fraction, ...]:
        """Interval lengths, one per section."""
        return tuple(
            self.breakpoints[k + 1] - self.breakpoints[k] for k in range(len(self.sections))
        )


RandomStoppingTime = Union[
    PureStoppingTime, RandomizedStoppingTime, BehaviorStoppingTime, MixedStoppingTime
]


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
        return sum(
            (m for row in self.mass.values() for m in row.values()), start=Fraction(0)
        )

    def density(self, space: FilteredSpace, atom: str, t: Time) -> Fraction:
        """Stop mass at (atom, t) relative to the atom's probability."""
        return self.mass[atom][t] / space.prob[atom]

    def event_mass(self, event, t: Time) -> Fraction:
        """Mass of ``event x {t}``."""
        return sum((self.mass[a][t] for a in event), start=Fraction(0))


# -- builders (coerce ints/strings to Fraction, fill dense tables) ------------


def pure(stop: Mapping[str, Time]) -> PureStoppingTime:
    return PureStoppingTime(stop=ReadOnly(stop))


def randomized(rho, rho_inf) -> RandomizedStoppingTime:
    return RandomizedStoppingTime(
        rho=fraction_table(rho),
        rho_inf={a: as_fraction(v) for a, v in rho_inf.items()},
    )


def behavior(beta) -> BehaviorStoppingTime:
    return BehaviorStoppingTime(beta=fraction_table(beta))


def mixed(breakpoints, sections) -> MixedStoppingTime:
    return MixedStoppingTime(
        breakpoints=tuple(as_fraction(r) for r in breakpoints),
        sections=tuple(s if isinstance(s, PureStoppingTime) else pure(s) for s in sections),
    )


def stopping_measure(mass, space: FilteredSpace) -> StoppingMeasure:
    """Dense mass table from possibly sparse input; missing cells become 0.  Mass at an atom
    or a time outside the space is refused."""
    rows = [mass.get(atom, {}) for atom in space.atoms]
    for atom, row in zip(space.atoms, rows):
        if not isinstance(row, Mapping):
            raise ValidationError(f"mass table row at {atom!r} is not a mapping")
    table = [ReadOnly({t: as_fraction(row.get(t, 0)) for t in space.times}) for row in rows]
    unknown = set(mass) - set(space.atoms)
    if unknown:
        raise ValidationError(f"mass table references unknown atoms {sorted(unknown)}")
    for atom, row, cells in zip(space.atoms, rows, table):
        stray = [t for t in row if t not in cells]
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
    """The first Violation, or per atom the number of its stop block (None if it never stops).

    The stop table is gathered by atom in one look (``gather``) and walked only to name a
    fault: first a key fault (``row_fault``), then the first atom whose index is not a time:
    an int (not a bool) in 1..T, or INFINITY.  That index is the Violation's ``time`` only if
    it is an int or a float off the integers (``2.5``, nan): ``1.0`` would read as time 1.
    ``{stop = n}`` splits a time-``n`` block exactly when fewer atoms stop in it than it
    holds, since only its own atoms can; the first split block in flat order (by time, then
    partition order) is reported.
    """
    times = range(1, space.horizon + 1)

    def is_time(t) -> bool:
        return t == INFINITY or isinstance(t, int) and not isinstance(t, bool) and t in times

    cells = gather([eta.stop], [space.atoms])
    timed = cells is not None and all(
        map(is_time, {*cells} if {*map(type, cells)} <= {int, float} else cells)
    )
    if not timed:
        # an atom the table lacks reads as None, no time either: key faults come first
        fault = row_fault(eta.stop, space.atoms, "stop", "atom", exact=False)
        if fault is not None or cells is None:
            return fault
        atom, t = next((a, t) for a, t in zip(space.atoms, cells) if not is_time(t))
        shown = time_label(t) if isinstance(t, int) and type(t) is not bool else repr(t)
        return Violation(
            "OutOfRange",
            time=t if type(t) is int or type(t) is float and not t.is_integer() else None,
            where=atom,
            detail=f"stop index {shown} outside 1..{space.horizon}, inf",
        )
    stops = space.stop_blocks(cells)
    split = [i for i, k in Counter(stops).items() if i is not None and k != space.block_size[i]]
    if split:
        n, block_id = space.depth[min(split)], space.ids[min(split)]
        return Violation(
            "NotAdapted", time=n, where=block_id, detail=f"{{stop={n}}} splits block {block_id}"
        )
    return stops


def _check_randomized(eta: RandomizedStoppingTime, space: FilteredSpace) -> Union[Violation, tuple]:
    """The first Violation, or ``(rho, den, spent)``: the stop masses and their sums down
    each path, in integers over one denominator, from the sum check's one spent pass.

    ``rho`` and ``rho_inf`` are read together and range-checked in integers over their one
    denominator, which the sum check then compares with each path's spent and never-stop
    masses."""
    cells = space.read(eta.rho, "rho", eta.rho_inf, "rho_inf")
    if isinstance(cells, Violation):
        return cells
    nums, den = integers(cells)
    fault = _unit_fault(space, cells, nums, itertools.repeat(den), "rho", "rho_inf")
    if fault is not None:
        return fault
    rho, spent = nums[: space.root], space.spent(nums)
    for atom, i, never in zip(space.atoms, space.leaf, nums[space.root :]):
        if spent[i] + never != den:
            total = Fraction(spent[i] + never, den)
            return Violation("SumNotOne", where=atom, detail=f"stop masses sum to {total}")
    return rho, den, spent


def _check_mixed(eta: MixedStoppingTime, space: FilteredSpace) -> Union[Violation, tuple]:
    """The first Violation, or ``(stops, weights, den)``: each section's stop blocks and
    its weight over ``den``.  Each section costs O(atoms); the first bad one is reported."""
    bps = eta.breakpoints
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
    """A valid rule's kept check.  Its ``parts`` are per atom its stop block (pure), ``(rho,
    den, spent)`` (randomized), the hazards in flat order (behavior) or ``(stops, weights,
    den)`` (mixed).  Raises ValidationError with the first Violation for an invalid rule.
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
    """A valid rule's density Table, reduced from its kept check's parts."""
    return _kind(kept.ref())[1](kept.parts, space)


def _survival(hazards: list, space: FilteredSpace) -> Table:
    """Survive past 1..n-1, then stop at n: the survival carried down the tree in integers.

    The denominator is the product over times of the lcm of the
    denominators of that time's hazards that can act, so every product
    divides exactly.  A hazard below a sure stop (a hazard of 1 on the
    path) meets no survival and is left out of the lcm.
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
    return Table(rho, [alive[i] for i in space.leaf], den)


def _sections(sections, weights, den: int, space: FilteredSpace) -> Table:
    """Weighted pure rules summed per stop block and per never-stopping atom."""
    rho = [0] * space.root
    rho_inf = [0] * len(space.atoms)
    for stops, w in zip(sections, weights):
        for i in set(stops) - {None}:
            rho[i] += w
        for j, i in enumerate(stops):
            if i is None:
                rho_inf[j] += w
    return Table(rho, rho_inf, den)


def _spent_table(parts: tuple, space: FilteredSpace) -> Table:
    """A randomized rule's densities: what each path leaves unspent is its never-stop mass."""
    rho, den, spent = parts
    return Table(rho, [den - spent[i] for i in space.leaf], den)


#: Per rule type: its check (the first Violation, or the parts it built) and their reduction.
_KINDS = {
    PureStoppingTime: (_check_pure, lambda stops, space: _sections([stops], [1], 1, space)),
    RandomizedStoppingTime: (_check_randomized, _spent_table),
    BehaviorStoppingTime: (_check_behavior, _survival),
    MixedStoppingTime: (_check_mixed, lambda parts, space: _sections(*parts, space)),
}


def _kind(eta) -> tuple:
    """``eta``'s check and reduction: the one dispatch on rule type."""
    kind = _KINDS.get(type(eta))
    if kind is None:
        raise TypeError(f"not a stopping rule: {type(eta).__name__}")
    return kind


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
    cell = (d.blocks + d.atoms).__getitem__
    columns = [map(value, map(mul, space.atom_mass, map(cell, slots))) for slots in space.slots]
    rows = map(ReadOnly, map(zip, itertools.repeat(space.times), zip(*columns)))
    return StoppingMeasure(mass=ReadOnly(zip(space.atoms, rows)))


def is_stopping_measure(nu: StoppingMeasure, space: FilteredSpace) -> bool:
    """Decide the stopping-measure conditions exactly (see ``measure_rule``)."""
    return measure_rule(nu, space) is not None


def measure_rule(nu: StoppingMeasure, space: FilteredSpace) -> Optional[RandomizedStoppingTime]:
    """The randomized rule whose mass table is ``nu``, or None if ``nu`` is not a stopping measure.

    ``nu`` must hold an exact mass at every atom and time of the space.  The rule's densities
    are read off one member atom per block, so the rule check decides that they are
    nonnegative and sum to one, and its mass table gives back ``nu`` only if every time-``n``
    density is constant on the time-``n`` blocks.
    """
    times = set(space.times)
    if set(nu.mass) != set(space.atoms) or not all(
        set(row) == times and all(map(_exact, row.values())) for row in nu.mass.values()
    ):
        return None
    rho = [nu.density(space, space.members(n, b)[0], n) for n, b in zip(space.depth, space.ids)]
    eta = RandomizedStoppingTime(
        rho=space.by_block(rho),
        rho_inf={a: nu.density(space, a, INFINITY) for a in space.atoms},
    )
    if validate(eta, space) is None and detailed_distribution(eta, space).mass == nu.mass:
        return eta
    return None


def equivalent(
    eta1: RandomStoppingTime, eta2: RandomStoppingTime, space: FilteredSpace
) -> bool:
    """True iff the two rules induce identical mass tables (exact equality).

    Every atom has positive probability, so equal mass tables are equal
    densities.
    """
    d1, d2 = density_table(eta1, space), density_table(eta2, space)
    return [x * d2.den for x in d1.blocks + d1.atoms] == [y * d1.den for y in d2.blocks + d2.atoms]


# -- enumeration -----------------------------------------------------------------


def _union(parts: tuple[dict[str, Time], ...]) -> dict[str, Time]:
    """One stop table from the tables of disjoint blocks."""
    merged: dict[str, Time] = {}
    for part in parts:
        merged.update(part)
    return merged


def enumerate_pure_stopping_times(space: FilteredSpace) -> list[PureStoppingTime]:
    """All pure stopping rules of the space, built level by level from the horizon.

    At each block the rule either stops everyone now or defers to an
    independent choice per child block; at the horizon the options are
    "stop at T" and "never".  Intended for small spaces; the count grows
    exponentially with the tree.
    """
    below: dict[str, list[dict[str, Time]]] = {}
    for n in range(space.horizon, 0, -1):
        options: dict[str, list[dict[str, Time]]] = {}
        for block_id in space.blocks(n):
            members = space.members(n, block_id)
            here: list[dict[str, Time]] = [{a: n for a in members}]
            if n == space.horizon:
                here.append({a: INFINITY for a in members})
            else:
                children = space.children(n, block_id)
                if len(children) == 1:
                    # an only child covers the same atoms: its tables serve as they are
                    here.extend(below[children[0]])
                else:
                    combos = itertools.product(*(below[c] for c in children))
                    here.extend(_union(combo) for combo in combos)
            options[block_id] = here
        below = options
    return [PureStoppingTime(stop=_union(combo)) for combo in itertools.product(*below.values())]
