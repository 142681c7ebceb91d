"""The factor-by-factor pair search against the product-then-filter search.

The reference below walks the full product of the per-factor local
tables, filters it by the pairwise gcd congruences, and advances each
component state with state_oracle.advance, over every cycle pair.  The
descent in adjacency must give the same pairs in the same order, so
every multiplicity, every edge bundle and the key order must match, and
the greedy tree must be the one its definition gives on the reference
edges.
"""

import itertools
from math import gcd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclejoin.adjacency import SPECIAL_STATE, build_graph
from cyclejoin.gf2 import degree, is_irreducible
from cyclejoin.joining import greedy_connected_subgraph
from cyclejoin.lfsr import Lfsr
from cyclejoin.pipeline import FactoredLfsr
from state_oracle import advance

GOLDEN = [
    "1011,1101",
    "11,111,11111",
    "11,1101,11001",
    "10011,11111",
    "111,1011,11111",
    "11,100111001",
    "11,111,1011,11111",
    "11111111111",
    "111,1011,1001001",
    "101011100011",
    "1001001,1010111",
    "11,1011110010111",
    "1001001,10000001111",
]

IRREDUCIBLE = [
    p for d in range(1, 8) for p in range(1 << d, 1 << (d + 1)) if p & 1 and is_irreducible(p)
]


def reference_pairs(c1, c2, tables, factors, basis, rep):
    """Product of the local tables, filtered by the pairwise congruences."""
    if not any(c1.flags):
        if c2 == rep.descriptor:
            yield 0
        return
    if not any(c2.flags):
        if c1 == rep.descriptor:
            yield SPECIAL_STATE
        return
    s = len(factors)
    if any(not a and not b for a, b in zip(c1.flags, c2.flags)):
        return
    options = []
    for i, f in enumerate(factors):
        j = c1.indices[i] if c1.flags[i] else f.t
        k = c2.indices[i] if c2.flags[i] else f.t
        opts = tables[i].pairs(j, k)
        if not opts:
            return
        options.append(opts)
    p1 = [f.order if a else 1 for f, a in zip(factors, c1.flags)]
    p2 = [f.order if a else 1 for f, a in zip(factors, c2.flags)]
    checks = []
    for m in range(s):
        for i in range(m + 1, s):
            g1 = gcd(p1[i], p1[m])
            g2 = gcd(p2[i], p2[m])
            if g1 > 1 or g2 > 1:
                checks.append((i, m, g1, g2))
    side_states = []
    for i, f in enumerate(factors):
        if c1.flags[i]:
            base = f.states[c1.indices[i]]
            side_states.append({u: advance(Lfsr(f.poly), base, u) for u, _ in options[i]})
        else:
            side_states.append(None)
    l1, l2 = c1.shifts, c2.shifts
    for combo in itertools.product(*options):
        ok = True
        for i, m, g1, g2 in checks:
            if g1 > 1 and (combo[i][0] - l1[i] - combo[m][0] + l1[m]) % g1:
                ok = False
                break
            if g2 > 1 and (combo[i][1] - l2[i] - combo[m][1] + l2[m]) % g2:
                ok = False
                break
        if ok:
            v = basis.compose(
                [side_states[i][combo[i][0]] if c1.flags[i] else 0 for i in range(s)]
            )
            yield v


def reference_edges(inst):
    descs = inst.cycles.cycles
    edges = {}
    for i in range(len(descs)):
        for j in range(i + 1, len(descs)):
            ps = tuple(
                reference_pairs(
                    descs[i], descs[j], inst.tables, inst.factors, inst.basis, inst.special
                )
            )
            if ps:
                edges[(i, j)] = ps
    return edges


def reference_greedy(psi, edges):
    """The greedy tree by its definition, read off the reference edges.

    Each processed cycle (lowest of the frontier first) takes the first
    pair it shares with every still-unreached cycle, scanning all cycles
    in ascending order.
    """
    reached = [False] * psi
    reached[0] = True
    frontier = [0]
    tree = {}
    while frontier and not all(reached):
        cur = min(frontier)
        frontier.remove(cur)
        for j in range(psi):
            key = (min(cur, j), max(cur, j))
            if not reached[j] and key in edges:
                tree[key] = edges[key][:1]
                reached[j] = True
                frontier.append(j)
    return tree


def assert_matches_reference(inst):
    graph = build_graph(inst.cycles, inst.tables, inst.factors, inst.basis, inst.special)
    want = reference_edges(inst)
    # the multiplicities are counted without listing a pair, in the same key order
    assert list(graph.multiplicities.items()) == [(e, len(ps)) for e, ps in want.items()]
    got = graph.edges
    assert list(got) == list(want)
    assert got == want
    greedy = greedy_connected_subgraph(
        inst.cycles, inst.tables, inst.factors, inst.basis, inst.special
    )
    assert list(greedy.edges.items()) == list(reference_greedy(inst.psi, want).items())


# orders 3, 15, 9: the lcm above the last level (15) is below the product
# of the periods above it (45), and the two give different gcds with 9
@pytest.mark.parametrize("facs", GOLDEN + ["111,10011,1001001"])
def test_pair_search_matches_reference_on_golden_instances(facs):
    assert_matches_reference(FactoredLfsr.from_strings(facs))


@st.composite
def factor_sets(draw):
    polys = draw(st.lists(st.sampled_from(IRREDUCIBLE), min_size=1, max_size=4, unique=True))
    total = 0
    picked = []
    for p in polys:
        if total + degree(p) <= 10:
            picked.append(p)
            total += degree(p)
    return picked if total >= 2 else [0b111]


@settings(max_examples=40, deadline=None)
@given(factor_sets())
def test_pair_search_matches_reference_on_drawn_instances(polys):
    assert_matches_reference(FactoredLfsr(polys))


@pytest.mark.parametrize("facs", ["11,111,11111", "111,1011,1001001", "101011100011"])
def test_orbit_table_matches_advance(facs):
    inst = FactoredLfsr.from_strings(facs)
    for f in inst.factors:
        reg = Lfsr(f.poly)
        for j, rep in enumerate(f.states):
            orbit = f.orbit(j)
            assert len(orbit) == f.order
            assert all(orbit[k] == advance(reg, rep, k) for k in range(f.order))
            assert all(f.locate(x) == (j, k) for k, x in enumerate(orbit))


def test_slot_images_match_compose():
    inst = FactoredLfsr.from_strings("11,111,1011,11111")
    basis = inst.basis
    for i, d in enumerate(basis.degrees):
        images = basis.slot_images(i)
        assert len(images) == 1 << d
        for x in range(1 << d):
            blocks = [0] * len(basis.degrees)
            blocks[i] = x
            assert images[x] == basis.compose(blocks)
