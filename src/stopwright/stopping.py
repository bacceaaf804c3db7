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
    integers,
    numerator_of,
    read_only,
    read_only_rows,
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
    """Dense mass table from possibly sparse input; missing cells become 0."""
    rows = (mass.get(atom, {}) for atom in space.atoms)
    table = [ReadOnly({t: as_fraction(row.get(t, 0)) for t in space.times}) for row in rows]
    unknown = set(mass) - set(space.atoms)
    if unknown:
        raise ValidationError(f"mass table references unknown atoms {sorted(unknown)}")
    return StoppingMeasure(mass=ReadOnly(zip(space.atoms, table)))


# -- validation ----------------------------------------------------------------


def _unit_cells(table, space: FilteredSpace, name: str) -> Union[Violation, list]:
    """The cells of a block table of values in [0, 1], in flat order, or the first Violation."""
    cells = space.read(table, name)
    if isinstance(cells, Violation):
        return cells
    nums = list(map(numerator_of, cells))
    if min(nums, default=0) >= 0 and all(map(le, nums, map(denominator_of, cells))):
        return cells
    i = next(i for i, v in enumerate(cells) if not 0 <= v <= 1)
    return Violation(
        "OutOfRange", time=space.depth[i], where=space.ids[i], detail=f"{name}={Fraction(cells[i])}"
    )


def _unknown_atom(table, space: FilteredSpace) -> Optional[str]:
    """A key outside the space, in a table already known to hold every atom."""
    if len(table) == len(space.atoms):
        return None
    return next(a for a in table if a not in space.prob)


def _check_pure(eta: PureStoppingTime, space: FilteredSpace) -> Union[Violation, list]:
    """The first Violation, or per atom the number of its stop block (None if it never stops).

    A read-only table of ints and floats that are times, one per atom, is gathered in one
    look; to find a fault, atoms are checked one by one.  ``{stop = n}`` is checked only at
    the atoms' stop blocks, where it can split a block.  Every split is found, and the first
    in flat order (by time, then partition order) is reported.
    """
    times = range(1, space.horizon + 1)

    def is_time(t) -> bool:
        return not isinstance(t, bool) and (t == INFINITY or t in times)

    stop = eta.stop
    cells = [*map(stop.get, space.atoms)] if type(stop) is ReadOnly else [None]
    whole = {*map(type, cells)} <= {int, float} and len(stop) == len(cells)
    if not whole or not all(map(is_time, set(cells))):
        for atom in space.atoms:
            if atom not in stop:
                return Violation("Malformed", where=atom, detail="no stop index for atom")
            t = stop[atom]
            if not is_time(t):
                shown = time_label(t) if isinstance(t, int) and type(t) is not bool else repr(t)
                return Violation(
                    "OutOfRange",
                    time=t if type(t) in (int, float) else None,
                    where=atom,
                    detail=f"stop index {shown} outside 1..{space.horizon}, inf",
                )
        unknown = _unknown_atom(stop, space)
        if unknown is not None:
            return Violation("Malformed", where=str(unknown), detail="stop index for unknown atom")
        cells = map(stop.__getitem__, space.atoms)
    stops = space.stop_blocks(cells)
    first_split = space.root
    for i in set(stops) - {None}:
        n = space.depth[i]
        if i < first_split and {*map(stop.__getitem__, space.members(n, space.ids[i]))} != {n}:
            first_split = i
    if first_split < space.root:
        n, block_id = space.depth[first_split], space.ids[first_split]
        return Violation(
            "NotAdapted", time=n, where=block_id, detail=f"{{stop={n}}} splits block {block_id}"
        )
    return stops


def _check_randomized(eta: RandomizedStoppingTime, space: FilteredSpace) -> Union[Violation, tuple]:
    """The first Violation, or ``(rho, den, spent)``: the stop masses and their sums down
    each path, in integers over one denominator, from the sum check's one spent pass."""
    cells = _unit_cells(eta.rho, space, "rho")
    if isinstance(cells, Violation):
        return cells
    rho, den = integers(cells)
    spent = space.spent(rho)
    for atom, i in zip(space.atoms, space.leaf):
        if atom not in eta.rho_inf:
            return Violation("Malformed", time=INFINITY, where=atom, detail="rho_inf missing atom")
        v = eta.rho_inf[atom]
        if not _exact(v):
            return Violation("Malformed", time=INFINITY, where=atom, detail="non-exact rho_inf")
        p, q = v.numerator, v.denominator
        if p < 0 or p > q:
            return Violation(
                "OutOfRange", time=INFINITY, where=atom, detail=f"rho_inf={Fraction(v)}"
            )
        if p * den != (den - spent[i]) * q:  # v + spent / den != 1
            total = v + Fraction(spent[i], den)
            return Violation("SumNotOne", where=atom, detail=f"stop masses sum to {total}")
    unknown = _unknown_atom(eta.rho_inf, space)
    if unknown is not None:
        return Violation(
            "Malformed", time=INFINITY, where=str(unknown), detail="rho_inf names unknown atom"
        )
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
    BehaviorStoppingTime: (lambda eta, space: _unit_cells(eta.beta, space, "beta"), _survival),
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
    """Decide the stopping-measure conditions exactly.

    Nonnegative masses, atom marginals equal to the space's probabilities,
    and each finite-time density constant on that time's blocks.
    """
    if set(nu.mass) != set(space.atoms):
        return False
    for atom in space.atoms:
        row = nu.mass[atom]
        if set(row) != set(space.times):
            return False
        if any(m < 0 for m in row.values()):
            return False
        if sum(row.values()) != space.prob[atom]:
            return False
    for n in range(1, space.horizon + 1):
        for block_id in space.blocks(n):
            members = space.members(n, block_id)
            first = nu.density(space, members[0], n)
            if any(nu.density(space, a, n) != first for a in members[1:]):
                return False
    return True


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
