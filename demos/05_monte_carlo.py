"""Running stopping rules from explicit randomness and checking the exact layer.

Run with:  python demos/05_monte_carlo.py
"""

from stopwright import (
    build_space,
    detailed_distribution,
    empirical_detailed_distribution,
    randomized,
)
from stopwright.montecarlo import chunk_plan, detailed_counts_chunk

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

# Sampling is chunked and seeded: chunk i draws from a generator
# seeded with (seed, i), so identical seeds reproduce identical counts and
# any split of whole chunks across workers sums to the same totals.
samples, seed = 100_000, 42
empirical = empirical_detailed_distribution(rho, space, samples, seed)
exact = detailed_distribution(rho, space)

print(f"{samples} samples with seed {seed}:")
worst = 0.0
for atom in space.atoms:
    for t in space.times:
        gap = abs(empirical.frequencies[atom][t] - float(exact.mass[atom][t]))
        worst = max(worst, gap)
    print(" ", atom, {str(t): round(f, 4) for t, f in empirical.frequencies[atom].items()})
print("largest |empirical - exact| cell gap:", round(worst, 5))

again = empirical_detailed_distribution(rho, space, samples, seed)
print("same seed, bit-identical counts:", again.counts == empirical.counts)

# The partitioning contract, by hand: give the first chunk to one worker
# and the rest to another; summed counts match the single-worker run.
plan = chunk_plan(samples)
split = None
for index, size in plan:
    counts = detailed_counts_chunk(rho, space, size, seed, index)
    split = counts if split is None else split + counts
merged = {
    atom: {t: int(split[i, j]) for j, t in enumerate(space.times)}
    for i, atom in enumerate(space.atoms)
}
print("chunked workers reproduce the totals:", merged == empirical.counts)
