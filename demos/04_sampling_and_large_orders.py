#!/usr/bin/env python3
"""Uniform random sequences, and a shortcut for larger orders.

Wilson's loop-erased walk on the condensed graph, weighted by pair
multiplicities, followed by a uniform pick of one pair inside each
chosen bundle, gives a uniformly random spanning tree, hence a
uniformly random de Bruijn sequence of the class.  When the complete
pair computation is more than needed, a greedy frontier search finds
just one spanning structure and still yields a valid sequence.
"""

import random
from collections import Counter

from cyclejoin import FactoredLfsr, join_cycles, random_spanning_tree, verify_de_bruijn
from cyclejoin.adjacency import best_count
from cyclejoin.joining import spanning_trees, tree_multiplicity

inst = FactoredLfsr.from_strings("11,1101,11001")
graph = inst.graph()

print("three seeded samples (same seed twice shows determinism):")
for seed in (7, 7, 8):
    tree = random_spanning_tree(graph, seed)
    seq = join_cycles(tree, inst.lfsr)
    print(f"  seed {seed}: {seq.bits[:48]}...  de Bruijn: {verify_de_bruijn(seq.bits, inst.n)}")
print()

# project a few thousand samples onto the 15 condensed trees; the expected
# share of each is its parallel-edge product over the total count
trees = list(spanning_trees(graph))
weights = [tree_multiplicity(graph, t) for t in trees]
zg = best_count(graph)
edge_of = {p: e for e, bundle in graph.edges.items() for p in bundle}
index = {frozenset(tuple(sorted(e)) for e in t): k for k, t in enumerate(trees)}

rng = random.Random(0)
samples = 5000
counts = Counter()
for _ in range(samples):
    gt = random_spanning_tree(graph, rng)
    counts[index[frozenset(edge_of[p] for p in gt)]] += 1

print(f"{samples} samples against expected shares on the condensed projection:")
for k in sorted(index.values()):
    expected = samples * weights[k] / zg
    print(f"  tree {k:>2}: observed {counts[k]:>4}, expected {expected:7.1f}")
print()

# larger order: skip the full graph and grab one greedy spanning structure
big = FactoredLfsr.from_strings("1001001,10000001111")  # order 16
tree_graph = big.greedy_tree()
pairs = tuple(ps[0] for ps in tree_graph.edges.values())
seq = join_cycles(pairs, big.lfsr)
print(f"greedy mode at order {big.n}: {len(pairs)} pairs joined {big.psi} cycles;")
print(f"  output verifies: {verify_de_bruijn(seq.bits, big.n)} (length {len(seq.bits)})")
