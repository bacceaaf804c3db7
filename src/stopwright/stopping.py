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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import ValidationError
from .space import INFINITY, FilteredSpace, Time, as_fraction, time_label

#: The stop mass of a cell that carries none; the density readers skip its arithmetic.
ZERO = Fraction(0)


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


def _checked_fraction(value) -> Optional[Fraction]:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    return None


def _validate_block_table(
    table, space: FilteredSpace, name: str
) -> tuple[Optional[dict], Optional[Violation]]:
    """Check an {n: {block: value}} table covers exactly 1..T with exact values."""
    checked: dict[int, dict[str, Fraction]] = {}
    for n in table:
        if isinstance(n, bool) or n not in range(1, space.horizon + 1):
            return None, Violation(
                "OutOfRange", detail=f"{name} has time {n!r} outside 1..{space.horizon}"
            )
    for n in range(1, space.horizon + 1):
        level = table.get(n)
        if level is None:
            return None, Violation("Malformed", time=n, detail=f"{name} missing time {n}")
        checked[n] = {}
        for block_id in space.blocks(n):
            if block_id not in level:
                return None, Violation(
                    "Malformed", time=n, where=block_id, detail=f"{name} missing block"
                )
            v = _checked_fraction(level[block_id])
            if v is None:
                return None, Violation(
                    "Malformed", time=n, where=block_id, detail=f"{name} holds a non-exact value"
                )
            checked[n][block_id] = v
        extra = set(level) - set(space.blocks(n))
        if extra:
            return None, Violation(
                "Malformed", time=n, where=sorted(extra)[0], detail=f"unknown block in {name}"
            )
    return checked, None


def _unknown_atom(table, space: FilteredSpace) -> Optional[str]:
    """A key outside the space, in a table already known to hold every atom."""
    if len(table) == len(space.atoms):
        return None
    return next(a for a in table if a not in space.prob)


def _validate_pure(eta: PureStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    valid_times = set(space.times)
    for atom in space.atoms:
        if atom not in eta.stop:
            return Violation("Malformed", where=atom, detail="no stop index for atom")
        t = eta.stop[atom]
        if t not in valid_times or isinstance(t, bool):
            return Violation("OutOfRange", time=t if type(t) in (int, float) else None,
                             where=atom, detail=f"stop index {t!r} outside 1..{space.horizon}, inf")
    unknown = _unknown_atom(eta.stop, space)
    if unknown is not None:
        return Violation("Malformed", where=str(unknown), detail="stop index for unknown atom")
    for n in range(1, space.horizon + 1):
        for block_id in space.blocks(n):
            members = space.members(n, block_id)
            stopped = [a for a in members if eta.stop[a] == n]
            if stopped and len(stopped) != len(members):
                return Violation(
                    "NotAdapted",
                    time=n,
                    where=block_id,
                    detail=f"{{stop={n}}} splits block {block_id}",
                )
    return None


def _validate_randomized(eta: RandomizedStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    rho, bad = _validate_block_table(eta.rho, space, "rho")
    if bad:
        return bad
    for n, level in rho.items():
        for block_id, v in level.items():
            if not 0 <= v <= 1:
                return Violation("OutOfRange", time=n, where=block_id, detail=f"rho={v}")
    spent = space.spent(rho)
    T = space.horizon
    for atom in space.atoms:
        if atom not in eta.rho_inf:
            return Violation("Malformed", time=INFINITY, where=atom, detail="rho_inf missing atom")
        v_inf = _checked_fraction(eta.rho_inf[atom])
        if v_inf is None:
            return Violation("Malformed", time=INFINITY, where=atom, detail="non-exact rho_inf")
        if not 0 <= v_inf <= 1:
            return Violation("OutOfRange", time=INFINITY, where=atom, detail=f"rho_inf={v_inf}")
        total = v_inf + spent[T, space.block_of(T, atom)]
        if total != 1:
            return Violation("SumNotOne", where=atom, detail=f"stop masses sum to {total}")
    unknown = _unknown_atom(eta.rho_inf, space)
    if unknown is not None:
        return Violation(
            "Malformed", time=INFINITY, where=str(unknown), detail="rho_inf names unknown atom"
        )
    return None


def _validate_behavior(eta: BehaviorStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    beta, bad = _validate_block_table(eta.beta, space, "beta")
    if bad:
        return bad
    for n, level in beta.items():
        for block_id, v in level.items():
            if not 0 <= v <= 1:
                return Violation("OutOfRange", time=n, where=block_id, detail=f"beta={v}")
    return None


def _validate_mixed(eta: MixedStoppingTime, space: FilteredSpace) -> Optional[Violation]:
    bps = eta.breakpoints
    if len(bps) < 2 or len(eta.sections) != len(bps) - 1:
        return Violation(
            "Malformed",
            detail=f"{len(eta.sections)} sections for {len(bps)} breakpoints",
        )
    if any(_checked_fraction(r) is None for r in bps):
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
        return _validate_randomized(eta, space)
    if isinstance(eta, BehaviorStoppingTime):
        return _validate_behavior(eta, space)
    if isinstance(eta, MixedStoppingTime):
        return _validate_mixed(eta, space)
    raise TypeError(f"not a stopping rule: {type(eta).__name__}")


def require_valid(eta: RandomStoppingTime, space: FilteredSpace) -> None:
    violation = validate(eta, space)
    if violation is not None:
        raise ValidationError(str(violation), violation=violation)


# -- the canonical form -----------------------------------------------------------


def densities(eta: RandomStoppingTime, space: FilteredSpace) -> RandomizedStoppingTime:
    """The rule's canonical form: stop mass per block, never-stop mass per atom.

    Every representation reduces to this randomized form, and everything
    observable about a rule (its mass table, payoffs, equivalence, games)
    is read off it.  Validates ``eta`` first; the result holds Fractions
    keyed exactly by the space's blocks, times and atoms.
    """
    require_valid(eta, space)
    T = space.horizon
    if isinstance(eta, RandomizedStoppingTime):
        return RandomizedStoppingTime(
            rho={
                n: {b: Fraction(eta.rho[n][b]) for b in space.blocks(n)} for n in range(1, T + 1)
            },
            rho_inf={a: Fraction(eta.rho_inf[a]) for a in space.atoms},
        )
    rho: dict[int, dict[str, Fraction]] = {n: {} for n in range(1, T + 1)}
    if isinstance(eta, BehaviorStoppingTime):
        # survive past 1..n-1, then stop at n; the survival product is carried
        # down the tree, one factor per block; a zero hazard or a path that
        # has surely stopped leaves survival as it is and spends nothing
        survival: dict[tuple[int, Optional[str]], Fraction] = {(0, None): Fraction(1)}
        for n, block_id, parent_id in space.top_down():
            alive = survival[n - 1, parent_id]
            hazard = eta.beta[n][block_id]
            if hazard and alive:
                rho[n][block_id] = alive * hazard
                survival[n, block_id] = alive * (1 - hazard)
            else:
                rho[n][block_id] = ZERO
                survival[n, block_id] = alive
        rho_inf = {a: survival[T, space.block_of(T, a)] for a in space.atoms}
        return RandomizedStoppingTime(rho=rho, rho_inf=rho_inf)
    if isinstance(eta, PureStoppingTime):
        weighted = ((eta, Fraction(1)),)
    else:
        weighted = tuple(zip(eta.sections, eta.weights()))
    # a stop index is constant on blocks of its time, so one member decides
    for n in range(1, T + 1):
        for block_id in space.blocks(n):
            atom = space.members(n, block_id)[0]
            rho[n][block_id] = sum(
                (w for s, w in weighted if s.stop[atom] == n), start=Fraction(0)
            )
    rho_inf = {
        a: sum((w for s, w in weighted if s.stop[a] == INFINITY), start=Fraction(0))
        for a in space.atoms
    }
    return RandomizedStoppingTime(rho=rho, rho_inf=rho_inf)


def detailed_distribution(eta: RandomStoppingTime, space: FilteredSpace) -> StoppingMeasure:
    """The exact joint law of (outcome, stop index) induced by ``eta``."""
    d = densities(eta, space)
    mass = {}
    for atom in space.atoms:
        p = space.prob[atom]
        row: dict[Time, Fraction] = {}
        for n in range(1, space.horizon + 1):
            rho = d.rho[n][space.block_of(n, atom)]
            row[n] = p * rho if rho else ZERO
        row[INFINITY] = p * d.rho_inf[atom] if d.rho_inf[atom] else ZERO
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
    return densities(eta1, space) == densities(eta2, space)


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
