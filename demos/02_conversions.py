"""How each stopping-rule representation rewrites into the others, losslessly.

Run with:  python demos/02_conversions.py
"""

from itertools import accumulate

from stopwright import (
    build_space,
    convert,
    detailed_distribution,
    equivalent,
    measure_to_randomized,
    randomized,
    repair_densities,
    validate,
)

space = build_space(
    [
        {"id": "root", "parent": None},
        {"id": "A", "parent": "root"},
        {"id": "B", "parent": "root"},
        {"id": "w1", "parent": "A", "prob": "1/4"},
        {"id": "w2", "parent": "A", "prob": "1/4"},
        {"id": "w3", "parent": "B", "prob": "1/4"},
        {"id": "w4", "parent": "B", "prob": "1/4"},
    ]
)

rho = randomized(
    rho={
        1: {"A": "1/2", "B": "1/4"},
        2: {"w1": "1/2", "w2": "0", "w3": "1/4", "w4": "3/4"},
    },
    rho_inf={"w1": "0", "w2": "1/2", "w3": "1/2", "w4": "0"},
)

# Stop masses -> hazards: divide by the mass not yet spent.  Where the rule
# has surely stopped already the hazard is set to 0 (any value would do:
# it multiplies a zero survival probability).
haz = convert(rho, "behavior", space)
print("hazards:")
for n, level in haz.beta.items():
    print(f"  time {n}:", {b: str(v) for b, v in level.items()})

# The space keeps one stop-cell table: space.slots[k][j] is atom j's cell at
# the stop index space.times[k], its block at each time 1..T and then its own
# cell at INFINITY.  Summing the stop masses along those cells gives each
# atom's cumulative stop mass, whose values are the mixture's cuts below.
print("\nstop cells per atom (space.slots) and cumulative stop mass:")
for j, atom in enumerate(space.atoms):
    cells = [row[j] for row in space.slots]  # the last is the atom's own cell at INFINITY
    blocks = [space.cell_ids[k] for k in cells[:-1]]
    cumulative = accumulate(rho.rho[n][b] for n, b in enumerate(blocks, start=1))
    print(f"  {atom}: cells {cells}, blocks {blocks}, cumulative {[str(c) for c in cumulative]}")

# Stop masses -> a mixture of pure rules: one uniform draw r picks the
# first time whose cumulative stop mass reaches r.  Cutting [0,1] at every
# cumulative sum makes the chosen rule piecewise constant in r.
mix = convert(rho, "mixed", space)
print("\nmixture breakpoints:", [str(r) for r in mix.breakpoints])
for k, section in enumerate(mix.sections):
    print(f"  section {k}:", {a: str(t) for a, t in section.stop.items()})

# All conversions preserve the detailed distribution exactly, so round
# trips through any chain of representations are free.
for target in ("randomized", "behavior", "mixed"):
    twin = convert(haz, target, space)
    print(f"behavior -> {target:<10} equivalent:", equivalent(haz, twin, space))

# A stopping measure is the representation-free object underneath; reading
# its densities back gives a randomized rule that reproduces it exactly.
table = detailed_distribution(mix, space)
recovered = measure_to_randomized(table, space)
print("\nmeasure round trip recovers the rule:", recovered.rho == rho.rho)

# Externally supplied density tables may be inconsistent; the repair clips
# them forward in time and absorbs the remainder into the never-stop slot.
# On densities that came from a real stopping measure it is a no-op.
sloppy = {1: {"A": "2", "B": "1/4"}, 2: {"w1": 1, "w2": 1, "w3": 1, "w4": 1}}
fixed = repair_densities(sloppy, space)
print("\nrepaired table is a valid rule:", validate(fixed, space) is None)
print("repair is a no-op on valid densities:", repair_densities(rho.rho, space).rho == rho.rho)
