#!/usr/bin/env python3
"""Conjugate pairs, the adjacency graph, and exact sequence counts.

Two cycles are adjacent when one holds a state v whose conjugate
v ^ 1 (v with the first bit flipped) lies on the other.  Each shared
pair is an edge, stored as v, and the number of constructible de Bruijn
sequences equals the number of spanning trees of this multigraph (the
BEST theorem), taken as a cofactor of its degree-minus-adjacency
matrix on exact integers.
"""

from cyclejoin import FactoredLfsr, best_count, int_log2, state_to_str
from cyclejoin.joining import spanning_trees, tree_multiplicity

inst = FactoredLfsr.from_strings("11,111,11111")
graph = inst.graph()

# the graph counts each bundle first; a bundle's pairs are found when read
print(f"adjacency graph on {inst.psi} cycles, {sum(graph.multiplicities.values())} edges")
print()
print("pair counts (only adjacent cycles listed):")
for (a, b), mult in sorted(graph.multiplicities.items()):
    print(f"  {{V{a + 1},V{b + 1}}}: {mult}")
print()

v = graph.edges[(0, inst.cycles.special_index)][0]
print(
    "the zero cycle touches exactly one cycle, through the pair "
    f"({state_to_str(v, 7)}, {state_to_str(v ^ 1, 7)})"
)
print()

zg = best_count(graph)
zh = best_count(graph, condensed=True)
print(f"spanning trees of G (= de Bruijn sequences): {zg}  (~2^{int_log2(zg):.2f})")
print(f"spanning trees of the condensed graph:       {zh}  (~2^{int_log2(zh):.2f})")
print()

# On a smaller instance the counts can be confirmed the slow way: list all
# condensed trees and add up their parallel-edge choices.
small = FactoredLfsr.from_strings("11,1101,11001")
sg = small.graph()
trees = list(spanning_trees(sg))
print(f"cross-check on {small!r}:")
print(f"  enumerated condensed trees : {len(trees)} (cofactor says {best_count(sg, True)})")
print(
    f"  sum of edge-choice products: {sum(tree_multiplicity(sg, t) for t in trees)}"
    f" (cofactor says {best_count(sg)})"
)
