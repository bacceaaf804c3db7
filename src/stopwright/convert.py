"""Constructive conversions between stopping measures and the three random rule types.

Every conversion preserves the detailed distribution exactly, so a rule of
any type can be rewritten in any other type without changing what an
observer of (outcome, stop index) could ever see.  The hazard quotient,
the survival products, and the cumulative-sum threshold construction used
here are the entire computational content of that equivalence.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from typing import Optional

from .errors import NotAStoppingMeasure, ValidationError
from .space import (
    INFINITY, FilteredSpace, Kept, ReadOnly, Table, Time, fraction_table, integers, ordered
)
from .stopping import (
    BehaviorStoppingTime,
    MixedStoppingTime,
    PureStoppingTime,
    RandomStoppingTime,
    RandomizedStoppingTime,
    StoppingMeasure,
    check,
    densities,
    density_of,
    measure_rule,
)

ZERO = Fraction(0)


def measure_to_randomized(nu: StoppingMeasure, space: FilteredSpace) -> RandomizedStoppingTime:
    """The randomized rule whose mass table is the stopping measure ``nu`` (see ``measure_rule``)."""
    eta = measure_rule(nu, space)
    if eta is None:
        raise NotAStoppingMeasure("mass table fails the stopping-measure conditions")
    return eta


def randomized_to_behavior(
    eta: RandomStoppingTime, space: FilteredSpace
) -> BehaviorStoppingTime:
    """Stop masses to hazards: divide by the mass not yet spent.

    A block's hazard is its stop mass over the mass left unspent at its
    parent, read off ``FilteredSpace.spent``.  Once that hits zero the
    quotient is 0/0; any convention gives the same detailed distribution
    and we pick 0, so a rule that has surely stopped never "stops again".
    A rule of another type is read through its densities.  Masses share
    one denominator, so each hazard is a quotient of two integers.
    Derived once from ``eta``'s kept check: a repeat call on the same live
    rule returns the same read-only rule.
    """
    return check(eta, space).derive(_behavior, space)


def _behavior(kept: Kept, space: FilteredSpace) -> BehaviorStoppingTime:
    d = kept.derive(density_of, space)
    den = d.den
    unspent = [den - c for c in space.spent(d.cells)] + [den]  # the root has spent nothing
    beta = [Fraction(m, u) if (u := unspent[p]) else ZERO for m, p in zip(d.cells, space.parent)]
    return BehaviorStoppingTime(beta=space.by_block(beta))


def behavior_to_randomized(
    eta: BehaviorStoppingTime, space: FilteredSpace
) -> RandomizedStoppingTime:
    """Hazards to stop masses: survive past 1..n-1, then stop at n (see ``densities``)."""
    return densities(eta, space)


def randomized_to_mixed(eta: RandomStoppingTime, space: FilteredSpace) -> MixedStoppingTime:
    """Threshold the cumulative stop masses with one shared external draw.

    The draw r selects the first time whose cumulative mass reaches r.
    Cutting the unit interval at every cumulative sum seen on any path
    (plus 1) makes the selected rule constant on each piece, so finitely
    many pure sections carry the whole mixture.  Each section is adapted
    because cumulative masses are.  A rule of another type is read
    through its densities.  Derived once from ``eta``'s kept check, as
    ``randomized_to_behavior`` is.

    All sections come from one pass down the tree: a block with stop mass
    stops the sections whose cut lies in (spent at its parent, spent at
    the block].  Cumulative mass only grows along a path, so the stops on
    a path come in section order.
    """
    return check(eta, space).derive(_mixed, space)


def _mixed(kept: Kept, space: FilteredSpace) -> MixedStoppingTime:
    d = kept.derive(density_of, space)
    spent = space.spent(d.cells)
    cuts = sorted({c for c in spent if c > 0} | {d.den})
    breakpoints = (ZERO,) + tuple(Fraction(c, d.den) for c in cuts)
    # once the cumulative mass is c, every section whose cut is at most c has stopped
    reached = {c: k for k, c in enumerate(cuts, start=1)}
    # the stops on the path to each block, latest first: (n, sections stopped by n, earlier)
    stops: list[Optional[tuple]] = [None] * (space.root + 1)
    for i, p in enumerate(space.parent):
        earlier = stops[p]
        stops[i] = (space.depth[i], reached[spent[i]], earlier) if d.cells[i] else earlier
    rows = []
    for i in space.leaf:
        row: list[Time] = [INFINITY] * len(cuts)
        stop = stops[i]
        while stop is not None:
            n, upto, stop = stop
            since = 0 if stop is None else stop[1]
            row[since:upto] = [n] * (upto - since)
        rows.append(row)
    sections = tuple(PureStoppingTime(ReadOnly(zip(space.atoms, column))) for column in zip(*rows))
    return MixedStoppingTime(breakpoints=breakpoints, sections=sections)


def convert(eta: RandomStoppingTime, target_type: str, space: FilteredSpace) -> RandomStoppingTime:
    """Rewrite ``eta`` as an equivalent rule of ``target_type``.

    Route: densities -> target construction.  The result always has the
    same detailed distribution; its syntactic form is canonical for the
    target type, not necessarily minimal.  Each conversion is derived once
    from ``eta``'s kept check, so a repeat call on the same live rule
    returns the same read-only rule, which lives as long as ``eta`` does.
    That rule is checked on its own, the first time a call is handed it,
    never taken as valid from ``eta``'s check.
    """
    if target_type not in TARGET_TYPES:  # a tuple: an unhashable target is refused alike
        raise ValueError(f"target_type must be one of {TARGET_TYPES}, got {target_type!r}")
    return _MAKERS[target_type](eta, space)


#: Per target type, the conversion that makes it.
_MAKERS = {
    "randomized": densities,
    "behavior": randomized_to_behavior,
    "mixed": randomized_to_mixed,
}

TARGET_TYPES = tuple(_MAKERS)


def repair_densities(candidate, space: FilteredSpace) -> RandomizedStoppingTime:
    """Force an externally supplied density table into a valid randomized rule.

    Running forward in time, each value is clipped into [0, mass still
    unspent] and the never-stop slot absorbs the remainder.  On densities
    coming from an actual stopping measure this is a no-op; it only changes
    tables that were inconsistent to begin with.

    The candidate is ``{n: {block_id: value}}`` and may leave cells out, which read as 0.
    Raises ValidationError for a candidate or a row that is not a mapping, a time the space
    does not have (``FilteredSpace.level`` judges it: ``1.0`` or ``True`` is no time 1), or a
    block not of its time.

    A value clipped at the unspent mass spends exactly that mass, so by
    induction down each path the mass spent at a block after clipping is
    ``min(den, spent)`` of the values clipped at 0 alone: one spent pass.
    """
    table = fraction_table(candidate)
    if not isinstance(table, Mapping):
        raise ValidationError("candidate is not a mapping")
    for n, row in table.items():
        try:
            level = space.level(n)
        except KeyError:
            raise ValidationError(f"candidate has time {n!r} outside 1..{space.horizon}") from None
        if not isinstance(row, Mapping):
            raise ValidationError(f"candidate row at time {n} is not a mapping")
        unknown = ordered(set(row).difference(level))
        if unknown:
            raise ValidationError(f"candidate has unknown block {unknown[0]!r} at time {n}")
    raw, den = integers([table.get(n, {}).get(b, ZERO) for n, b in zip(space.depth, space.ids)])
    spent = [c if c < den else den for c in space.spent([r if r > 0 else 0 for r in raw])] + [0]
    rho = [spent[i] - spent[p] for i, p in enumerate(space.parent)]
    values, rho_inf = space.fractions(Table(rho + [den - spent[i] for i in space.leaf], den))
    return RandomizedStoppingTime(rho=values, rho_inf=rho_inf)
