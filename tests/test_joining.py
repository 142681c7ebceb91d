import math
import random

import pytest

from cyclejoin.adjacency import AdjacencyGraph, ConjugatePair, best_count
from cyclejoin.joining import (
    expand_tree,
    feedback_function,
    g_trees,
    join_cycles,
    random_spanning_tree,
    spanning_trees,
    tree_expansions,
    tree_multiplicity,
    verify_de_bruijn,
)
from cyclejoin.lfsr import Lfsr
from cyclejoin.pipeline import FactoredLfsr

N7 = "11,111,11111"
ROW3 = "11,1101,11001"  # 8 cycles, 15 condensed trees, 926016 sequences


def _toy_graph(edge_multiplicities):
    """Build a small AdjacencyGraph with dummy pair labels."""
    edges = {}
    label = 1
    for (a, b), m in edge_multiplicities.items():
        bundle = []
        for _ in range(m):
            bundle.append(ConjugatePair(label << 1, (label << 1) | 1))
            label += 1
        edges[(a, b)] = tuple(bundle)
    n = 1 + max(max(e) for e in edges)
    return AdjacencyGraph(n, edges)


def test_spanning_trees_path_graph():
    g = _toy_graph({(0, 1): 1, (1, 2): 1})
    assert list(spanning_trees(g)) == [((0, 1), (1, 2))]


def test_spanning_trees_triangle():
    g = _toy_graph({(0, 1): 1, (0, 2): 1, (1, 2): 1})
    trees = [frozenset(t) for t in spanning_trees(g)]
    assert len(trees) == 3 and len(set(trees)) == 3
    assert best_count(g, condensed=True) == 3


def test_spanning_trees_disconnected():
    g = _toy_graph({(0, 1): 1, (2, 3): 1})
    with pytest.raises(ValueError):
        list(spanning_trees(g))


def test_spanning_trees_row3_count_and_limit():
    g = FactoredLfsr.from_strings(ROW3).graph()
    trees = list(spanning_trees(g))
    assert len(trees) == 15
    assert len(set(map(frozenset, trees))) == 15  # duplicate-free
    assert list(spanning_trees(g, limit=4)) == trees[:4]
    # deterministic across runs
    assert list(spanning_trees(g)) == trees


def test_tree_counts_cross_check_matrix_tree():
    for facs in (ROW3, "1011,1101"):
        g = FactoredLfsr.from_strings(facs).graph()
        trees = list(spanning_trees(g))
        assert len(trees) == best_count(g, condensed=True)
        assert sum(tree_multiplicity(g, t) for t in trees) == best_count(g)


def test_expansions():
    g = _toy_graph({(0, 1): 2, (1, 2): 3})
    tree = ((0, 1), (1, 2))
    assert tree_multiplicity(g, tree) == 6
    all_expanded = list(tree_expansions(g, tree))
    assert len(all_expanded) == 6 and len(set(all_expanded)) == 6
    assert expand_tree(tree, g, (0, 0)) == all_expanded[0]
    with pytest.raises(IndexError):
        expand_tree(tree, g, (2, 0))
    # unique expansion when every multiplicity is 1
    g1 = _toy_graph({(0, 1): 1, (1, 2): 1})
    assert list(tree_expansions(g1, tree)) == [expand_tree(tree, g1, (0, 0))]


def test_g_tree_stream_total_count():
    g = FactoredLfsr.from_strings(ROW3).graph()
    seen = set()
    count = 0
    for t in g_trees(g):
        count += 1
        seen.add(t)
    assert count == 926016 == len(seen) == best_count(g)


@pytest.mark.slow
def test_n7_reference_full_tree_enumeration():
    g = FactoredLfsr.from_strings(N7).graph()
    assert sum(1 for _ in spanning_trees(g)) == 1_451_520


def test_n7_reference_edge_choice_count():
    g = FactoredLfsr.from_strings(N7).graph()
    assert len(g.edges[(5, 13)]) == 4  # edge {V6,V14} offers 4 pairs


def test_join_cycles_and_verify():
    inst = FactoredLfsr.from_strings(ROW3)
    g = inst.graph()
    seqs = [join_cycles(t, inst.lfsr) for t in g_trees(g, limit=40)]
    assert all(verify_de_bruijn(s.bits, inst.n) for s in seqs)
    assert len({s.bits for s in seqs}) == len(seqs)
    assert all(s.bits.count("1") == 1 << (inst.n - 1) for s in seqs)
    # the zero start state puts the all-zero window at the front
    assert all(s.bits.startswith("0" * inst.n) for s in seqs)


def test_join_distinct_trees_distinct_sequences():
    inst = FactoredLfsr.from_strings(ROW3)
    g = inst.graph()
    seqs = [
        join_cycles(expand_tree(t, g, (0,) * len(t)), inst.lfsr).bits
        for t in spanning_trees(g)
    ]
    assert len(seqs) == 15 and len(set(seqs)) == 15


def test_join_arbitrary_initial_state_is_rotation():
    inst = FactoredLfsr.from_strings(ROW3)
    g = inst.graph()
    tree = next(g_trees(g, limit=1))
    base = join_cycles(tree, inst.lfsr, init=0).bits
    other = join_cycles(tree, inst.lfsr, init=0b10110011).bits
    assert other != base and other in base + base
    assert verify_de_bruijn(other, inst.n)


def test_join_empty_modifier_reproduces_plain_lfsr():
    reg = Lfsr(0b1011011)  # any nonsingular register, n = 6
    out = join_cycles((), reg, init=0b101)
    assert [int(c) for c in out.bits] == reg.generate(0b101, 1 << reg.n)


def test_feedback_function_agrees_with_join():
    inst = FactoredLfsr.from_strings(ROW3)
    g = inst.graph()
    for tree in g_trees(g, limit=3):
        fb = feedback_function(tree, inst.lfsr)
        seq = join_cycles(tree, inst.lfsr)
        state = 0
        for c in seq.bits:
            assert str(state & 1) == c
            state = fb.step(state)
        assert state == 0


def test_feedback_function_rendering():
    reg = Lfsr(0b1011)
    fb = feedback_function((), reg)
    assert str(fb) == "x0 + x1"
    all_ones = ConjugatePair(0b110, 0b111)  # suffix (1, 1)
    fb2 = feedback_function((all_ones,), reg)
    assert fb2.suffixes == frozenset({0b11})
    assert str(fb2) == "x0 + x1 + x1*x2"
    assert fb2.value(0b110) == fb.value(0b110) ^ 1
    assert fb2.value(0b010) == fb.value(0b010)


def test_random_spanning_tree_two_vertices():
    g = _toy_graph({(0, 1): 1})
    assert random_spanning_tree(g, 5) == g.edges[(0, 1)]


def test_random_spanning_tree_deterministic_and_valid():
    inst = FactoredLfsr.from_strings(N7)
    g = inst.graph()
    t1 = random_spanning_tree(g, 123)
    assert t1 == random_spanning_tree(g, 123)
    assert len(t1) == inst.psi - 1
    seq = join_cycles(t1, inst.lfsr)
    assert verify_de_bruijn(seq.bits, inst.n)


def test_sampler_incidence_is_built_once_in_edge_order():
    # seeded draws index these lists, so their order fixes every sampled tree
    g = FactoredLfsr.from_strings(ROW3).graph()
    expected = [[] for _ in range(g.num_vertices)]
    for (a, b), pairs in g.edges.items():
        for p in pairs:
            expected[a].append((b, p))
            expected[b].append((a, p))
    assert g.incidence == expected
    assert g.incidence is g.incidence


def test_connectivity_is_searched_once_per_graph(monkeypatch):
    g = FactoredLfsr.from_strings(ROW3).graph()
    searches = []
    real = AdjacencyGraph.adjacency_lists

    def adjacency_lists(self):
        searches.append(self)
        return real(self)

    monkeypatch.setattr(AdjacencyGraph, "adjacency_lists", adjacency_lists)
    rng = random.Random(1)
    for _ in range(3):
        random_spanning_tree(g, rng)
    assert g.is_connected() and best_count(g) == 926016
    assert searches == [g]


def test_random_spanning_tree_uniform_over_condensed_projection():
    # project uniform G-trees onto the 15 condensed trees; expected mass of
    # tree k is multiplicity(k) / zeta_G, check all bins within 3 sigma
    inst = FactoredLfsr.from_strings(ROW3)
    g = inst.graph()
    trees = list(spanning_trees(g))
    weights = [tree_multiplicity(g, t) for t in trees]
    zg = sum(weights)
    index = {}
    for k, t in enumerate(trees):
        key = frozenset(tuple(sorted(e)) for e in t)
        index[key] = k
    edge_of_pair = {p: e for e, bundle in g.edges.items() for p in bundle}
    rng = random.Random(2024)
    counts = [0] * len(trees)
    samples = 100_000
    for _ in range(samples):
        gt = random_spanning_tree(g, rng)
        counts[index[frozenset(edge_of_pair[p] for p in gt)]] += 1
    for k, w in enumerate(weights):
        p = w / zg
        sigma = math.sqrt(samples * p * (1 - p))
        assert abs(counts[k] - samples * p) <= 3 * sigma


def test_greedy_tree_spans_and_joins():
    for facs in (N7, ROW3, "1011"):
        inst = FactoredLfsr.from_strings(facs)
        tg = inst.greedy_tree()
        assert len(tg.edges) == inst.psi - 1
        assert tg.is_connected()
        pairs = tuple(ps[0] for ps in tg.edges.values())
        seq = join_cycles(pairs, inst.lfsr)
        assert verify_de_bruijn(seq.bits, inst.n)


def test_verify_de_bruijn_basics():
    assert verify_de_bruijn("00010111", 3)
    assert not verify_de_bruijn("00000000", 3)
    assert verify_de_bruijn([0, 1], 1)
    with pytest.raises(ValueError):
        verify_de_bruijn("0101", 3)
    with pytest.raises(ValueError):
        verify_de_bruijn([0, 2, 1, 1], 2)


def test_packed_hex():
    inst = FactoredLfsr.from_strings(ROW3)
    seq = join_cycles(next(g_trees(inst.graph(), limit=1)), inst.lfsr)
    h = seq.packed_hex()
    assert len(h) == (1 << inst.n) // 4
    assert int(h, 16) == int(seq.bits, 2)
