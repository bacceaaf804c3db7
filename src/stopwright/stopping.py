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
from operator import le
from typing import Mapping, Optional, Union

from .errors import ValidationError
from .space import (
    INFINITY,
    AdaptedProcess,
    FilteredSpace,
    FractionsOver,
    Table,
    Time,
    as_fraction,
    denominator_of,
    integers,
    numerator_of,
    time_label,
)


@dataclass(frozen=True)
class PureStoppingTime:
    """Stop index per atom; {stop = n} must be a union of time-``n`` blocks."""

    stop: Mapping[str, Time]


@dataclass(frozen=True)
class RandomizedStoppingTime:
    """Per-time stop masses, block-keyed, plus the never-stop mass per atom."""

    rho: Mapping[int, Mapping[str, Fraction]]
    rho_inf: Mapping[str, Fraction]


@dataclass(frozen=True)
class BehaviorStoppingTime:
    """Per-time conditional stop probabilities (hazards), block-keyed."""

    beta: Mapping[int, Mapping[str, Fraction]]


@dataclass(frozen=True)
class MixedStoppingTime:
    """Piecewise-constant mixture of pure rules over the unit interval.

    ``breakpoints`` is the full grid 0 = r_0 < r_1 < ... < r_K = 1; section
    ``k`` applies when the external draw lands in (r_k-1, r_k].
    """

    breakpoints: tuple[Fraction, ...]
    sections: tuple[PureStoppingTime, ...]

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
    """Mass table over (atom, stop index).

    A *stopping measure* additionally projects to the space's probability
    on atoms and has time-``n`` densities constant on time-``n`` blocks;
    ``is_stopping_measure`` decides that.  The table itself may hold any
    candidate masses so that bad candidates can be represented and
    rejected.
    """

    mass: Mapping[str, Mapping[Time, Fraction]]

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
    return PureStoppingTime(stop=dict(stop))


def randomized(rho, rho_inf) -> RandomizedStoppingTime:
    return RandomizedStoppingTime(
        rho={int(n): {b: as_fraction(v) for b, v in level.items()} for n, level in rho.items()},
        rho_inf={a: as_fraction(v) for a, v in rho_inf.items()},
    )


def behavior(beta) -> BehaviorStoppingTime:
    return BehaviorStoppingTime(
        beta={int(n): {b: as_fraction(v) for b, v in level.items()} for n, level in beta.items()}
    )


def mixed(breakpoints, sections) -> MixedStoppingTime:
    return MixedStoppingTime(
        breakpoints=tuple(as_fraction(r) for r in breakpoints),
        sections=tuple(s if isinstance(s, PureStoppingTime) else pure(s) for s in sections),
    )


def stopping_measure(mass, space: FilteredSpace) -> StoppingMeasure:
    """Dense mass table from possibly sparse input; missing cells become 0."""
    table = {}
    for atom in space.atoms:
        row = mass.get(atom, {})
        table[atom] = {t: as_fraction(row.get(t, 0)) for t in space.times}
    unknown = set(mass) - set(space.atoms)
    if unknown:
        raise ValidationError(f"mass table references unknown atoms {sorted(unknown)}")
    return StoppingMeasure(mass=table)


# -- validation ----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """First violated clause of a representation's invariants.

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


#: Types whose values are exact without a closer look (``bool`` is not among them).
_EXACT_TYPES = {Fraction, int}


def _validate_block_table(
    table, space: FilteredSpace, name: str
) -> tuple[list, Optional[Violation]]:
    """Check an {n: {block: value}} table covers exactly 1..T with exact values.

    Returns the values in flat block order.
    """
    for n in table:
        if isinstance(n, bool) or n not in range(1, space.horizon + 1):
            return [], Violation(
                "OutOfRange", detail=f"{name} has time {n!r} outside 1..{space.horizon}"
            )
    cells = []
    for n, blocks in enumerate(space.levels, start=1):
        level = table.get(n)
        if level is None:
            return [], Violation("Malformed", time=n, detail=f"{name} missing time {n}")
        if isinstance(level, Mapping) and level.keys() == blocks.keys():
            row = list(map(level.__getitem__, blocks))
            if {*map(type, row)} <= _EXACT_TYPES:
                cells += row
                continue
        for block_id in blocks:
            if block_id not in level:
                return [], Violation(
                    "Malformed", time=n, where=block_id, detail=f"{name} missing block"
                )
            v = level[block_id]
            if not _exact(v):
                return [], Violation(
                    "Malformed", time=n, where=block_id, detail=f"{name} holds a non-exact value"
                )
            cells.append(v)
        if len(level) != len(blocks):
            extra = set(level) - set(blocks)
            return [], Violation(
                "Malformed", time=n, where=sorted(extra)[0], detail=f"unknown block in {name}"
            )
    return cells, None


def _out_of_range(cells, space: FilteredSpace, name: str) -> Optional[Violation]:
    """The first cell outside [0, 1], in flat order."""
    nums = list(map(numerator_of, cells))
    if min(nums, default=0) >= 0 and all(map(le, nums, map(denominator_of, cells))):
        return None
    i = next(i for i, v in enumerate(cells) if not 0 <= v <= 1)
    return Violation(
        "OutOfRange", time=space.depth[i], where=space.ids[i], detail=f"{name}={Fraction(cells[i])}"
    )


def _unknown_atom(table, space: FilteredSpace) -> Optional[str]:
    """A key outside the space, in a table already known to hold every atom."""
    if len(table) == len(space.atoms):
        return None
    return next(a for a in table if a not in space.prob)


def _stop_blocks(eta: PureStoppingTime, space: FilteredSpace) -> list[Optional[int]]:
    """Per atom, the number of its stop block, or None if it never stops."""
    return space.stop_blocks(map(eta.stop.__getitem__, space.atoms))


def _validate_pure(eta: PureStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    """``{stop = n}`` is checked only at the atoms' stop blocks, where it can split a block.

    Every split is found, and the first in flat order (by time, then
    partition order) is reported.
    """
    times = range(1, space.horizon + 1)

    def is_time(t) -> bool:
        return not isinstance(t, bool) and (t == INFINITY or t in times)

    def maps_atoms_to_times(stop) -> bool:
        """True iff ``stop`` maps exactly the atoms to times; one look at the distinct
        indices, and the atom-by-atom loop below only to find a fault."""
        if not (isinstance(stop, Mapping) and stop.keys() == space.prob.keys()):
            return False
        indices = list(stop.values())
        return {*map(type, indices)} <= {int, float} and all(map(is_time, set(indices)))

    if not maps_atoms_to_times(eta.stop):
        for atom in space.atoms:
            if atom not in eta.stop:
                return Violation("Malformed", where=atom, detail="no stop index for atom")
            t = eta.stop[atom]
            if not is_time(t):
                return Violation(
                    "OutOfRange",
                    time=t if type(t) in (int, float) else None,
                    where=atom,
                    detail=f"stop index {t!r} outside 1..{space.horizon}, inf",
                )
        unknown = _unknown_atom(eta.stop, space)
        if unknown is not None:
            return Violation("Malformed", where=str(unknown), detail="stop index for unknown atom")
    first_split = space.root
    for i in set(_stop_blocks(eta, space)) - {None}:
        n = space.depth[i]
        if i < first_split and {*map(eta.stop.__getitem__, space.members(n, space.ids[i]))} != {n}:
            first_split = i
    if first_split < space.root:
        n, block_id = space.depth[first_split], space.ids[first_split]
        return Violation(
            "NotAdapted", time=n, where=block_id, detail=f"{{stop={n}}} splits block {block_id}"
        )
    return None


def _validate_randomized(
    eta: RandomizedStoppingTime, space: FilteredSpace
) -> tuple[Optional[Violation], tuple]:
    """The violation, and for a valid rule ``(den, spent)``: its cumulative stop
    masses over one denominator, from the sum check's one spent pass."""
    cells, bad = _validate_block_table(eta.rho, space, "rho")
    if bad:
        return bad, ()
    bad = _out_of_range(cells, space, "rho")
    if bad:
        return bad, ()
    rho, den = integers(cells)
    spent = space.spent(rho)
    for atom, i in zip(space.atoms, space.leaf):
        if atom not in eta.rho_inf:
            bad = Violation("Malformed", time=INFINITY, where=atom, detail="rho_inf missing atom")
            return bad, ()
        v = eta.rho_inf[atom]
        if not _exact(v):
            return Violation("Malformed", time=INFINITY, where=atom, detail="non-exact rho_inf"), ()
        p, q = v.numerator, v.denominator
        if p < 0 or p > q:
            bad = Violation("OutOfRange", time=INFINITY, where=atom, detail=f"rho_inf={Fraction(v)}")
            return bad, ()
        if p * den != (den - spent[i]) * q:  # v + spent / den != 1
            total = v + Fraction(spent[i], den)
            return Violation("SumNotOne", where=atom, detail=f"stop masses sum to {total}"), ()
    unknown = _unknown_atom(eta.rho_inf, space)
    if unknown is not None:
        return Violation(
            "Malformed", time=INFINITY, where=str(unknown), detail="rho_inf names unknown atom"
        ), ()
    return None, (den, spent)


def _validate_behavior(eta: BehaviorStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    cells, bad = _validate_block_table(eta.beta, space, "beta")
    return bad or _out_of_range(cells, space, "beta")


def _validate_mixed(eta: MixedStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    """Each section is checked as a pure rule, O(atoms) apiece; the first bad one is reported."""
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
    if any(bps[k] >= bps[k + 1] for k in range(len(bps) - 1)):
        return Violation("Malformed", detail="breakpoints must increase strictly")
    for k, section in enumerate(eta.sections):
        inner = _validate_pure(section, space)
        if inner is not None:
            return Violation(
                "SectionNotStoppingTime",
                time=inner.time,
                where=f"sections[{k}]",
                detail=str(inner),
            )
    return None


def validate(eta: RandomStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    """Check every invariant of the representation; None means valid.

    Returns the first violated clause as a structured ``Violation`` rather
    than raising, so candidates can be inspected without try/except.
    """
    if isinstance(eta, PureStoppingTime):
        return _validate_pure(eta, space)
    if isinstance(eta, RandomizedStoppingTime):
        return _validate_randomized(eta, space)[0]
    if isinstance(eta, BehaviorStoppingTime):
        return _validate_behavior(eta, space)
    if isinstance(eta, MixedStoppingTime):
        return _validate_mixed(eta, space)
    raise TypeError(f"not a stopping rule: {type(eta).__name__}")


def _raise(violation: Optional[Violation]) -> None:
    if violation is not None:
        raise ValidationError(str(violation), violation=violation)


def require_valid(eta: RandomStoppingTime, space: FilteredSpace) -> None:
    _raise(validate(eta, space))


def spent_masses(eta: RandomizedStoppingTime, space: FilteredSpace) -> tuple[int, list[int]]:
    """Validate a randomized rule and return its cumulative stop masses per block,
    ``(den, spent)`` with ``spent[i] / den`` at block ``i``, from the validation's spent pass."""
    violation, parsed = _validate_randomized(eta, space)
    _raise(violation)
    return parsed


# -- the canonical form -----------------------------------------------------------


def density_table(eta: RandomStoppingTime, space: FilteredSpace) -> Table:
    """``densities`` as a Table, the form the exact passes read.  Validates ``eta`` once."""
    require_valid(eta, space)
    if isinstance(eta, RandomizedStoppingTime):
        # the randomized form is shaped like a process: a value per block and per atom
        return space.tables(AdaptedProcess(values=eta.rho, infinity=eta.rho_inf))[0]
    if isinstance(eta, BehaviorStoppingTime):
        return _survival(space.cells(eta.beta), space)
    if isinstance(eta, PureStoppingTime):
        return _sections([_stop_blocks(eta, space)], [1], 1, space)
    cuts, den = integers(eta.breakpoints)
    weights = [b - a for a, b in zip(cuts, cuts[1:])]
    return _sections([_stop_blocks(s, space) for s in eta.sections], weights, den, space)


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


def densities(eta: RandomStoppingTime, space: FilteredSpace) -> RandomizedStoppingTime:
    """The rule's canonical form: stop mass per block, never-stop mass per atom.

    Every representation reduces to this randomized form, and everything
    observable about a rule (its mass table, payoffs, equivalence, games)
    is read off it.  Validates ``eta`` first; the result holds Fractions
    keyed exactly by the space's blocks, times and atoms.
    """
    rho, rho_inf = space.fractions(density_table(eta, space))
    return RandomizedStoppingTime(rho=rho, rho_inf=rho_inf)


def detailed_distribution(eta: RandomStoppingTime, space: FilteredSpace) -> StoppingMeasure:
    """The exact joint law of (outcome, stop index) induced by ``eta``."""
    d = density_table(eta, space)
    value = FractionsOver(space.denominator * d.den).__getitem__
    stop_mass = d.blocks.__getitem__
    times = range(1, space.horizon + 1)
    mass = {}
    for atom, path, p, inf in zip(space.atoms, space.paths, space.atom_mass, d.atoms):
        row: dict[Time, Fraction] = dict(
            zip(times, map(value, map(p.__mul__, map(stop_mass, path))))
        )
        row[INFINITY] = value(p * inf)
        mass[atom] = row
    return StoppingMeasure(mass=mass)


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
