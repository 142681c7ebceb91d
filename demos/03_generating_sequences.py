#!/usr/bin/env python3
"""Turn spanning trees into de Bruijn sequences.

Each spanning tree selects one conjugate pair per edge; complementing
the linear feedback exactly on the pairs' (n-1)-bit suffixes splices
all cycles into a single cycle of length 2^n.  Distinct trees give
distinct sequences, so the deterministic tree stream indexes the whole
family.
"""

from cyclejoin import FactoredLfsr, feedback_function, join_cycles, verify_de_bruijn
from cyclejoin.joining import g_trees
from cyclejoin.lfsr import state_to_str

inst = FactoredLfsr.from_strings("11,1101,11001")
graph = inst.graph()

print(f"{inst!r}: {inst.psi} cycles to join")
print()

trees = list(g_trees(graph, limit=4))
for k, tree in enumerate(trees):
    seq = join_cycles(tree, inst.lfsr)
    ok = verify_de_bruijn(seq.bits, inst.n)
    ones = seq.bits.count("1")
    print(f"tree {k}: {seq.bits}")
    print(f"        de Bruijn: {ok}, ones: {ones}/{len(seq.bits)}")
print()

print("the first tree's conjugate pairs and the feedback they induce:")
tree = trees[0]
for v in tree:
    print(f"  {state_to_str(v, inst.n)} / {state_to_str(v ^ 1, inst.n)}")
fb = feedback_function(tree, inst.lfsr)
print(f"  next bit = {fb}")
print()

# stepping the symbolic feedback reproduces the sequence bit for bit
state = 0
rebuilt = []
for _ in range(1 << inst.n):
    rebuilt.append(str(state & 1))
    state = fb.step(state)
assert "".join(rebuilt) == join_cycles(tree, inst.lfsr).bits
print("stepping the symbolic feedback reproduces the joined sequence: True")

# any start state rotates the same cyclic sequence
rotated = join_cycles(tree, inst.lfsr, init=0b10011010)
base = join_cycles(tree, inst.lfsr)
print("starting elsewhere yields a rotation:", rotated.bits in base.bits + base.bits)
