import functools
import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from cyclejoin.adjacency import AdjacencyGraph, best_count
from cyclejoin.joining import (
    feedback_function,
    g_trees,
    join_cycles,
    random_spanning_tree,
    spanning_trees,
    tree_multiplicity,
    verify_de_bruijn,
)
from cyclejoin.lfsr import Lfsr
from cyclejoin.pipeline import FactoredLfsr
from state_oracle import cycle_labels
from test_pair_search import factor_sets

N7 = "11,111,11111"
ROW3 = "11,1101,11001"  # 8 cycles, 15 condensed trees, 926016 sequences


def _toy_graph(edge_multiplicities):
    """Build a small AdjacencyGraph with dummy pair labels."""
    edges = {}
    label = 1
    for (a, b), m in edge_multiplicities.items():
        bundle = []
        for _ in range(m):
            bundle.append(label << 1)
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


def test_spanning_trees_on_a_3000_vertex_path():
    # the tree search keeps its own stack: a path far deeper than the
    # interpreter's recursion limit has its one condensed tree, and the
    # doubled bundles at both ends expand it to four G-trees
    psi = 3000
    g = _toy_graph({(i, i + 1): 2 if i in (0, psi - 2) else 1 for i in range(psi - 1)})
    path = tuple((i, i + 1) for i in range(psi - 1))
    assert list(spanning_trees(g)) == [path]
    first, last = g.edges[path[0]], g.edges[path[-1]]
    middle = tuple(g.edges[e][0] for e in path[1:-1])
    expected = [(a,) + middle + (b,) for a in first for b in last]
    assert list(g_trees(g)) == expected


def test_spanning_trees_row3_count_and_determinism():
    g = FactoredLfsr.from_strings(ROW3).graph()
    trees = list(spanning_trees(g))
    assert len(trees) == 15
    assert len(set(map(frozenset, trees))) == 15  # duplicate-free
    # deterministic across runs
    assert list(spanning_trees(g)) == trees


def test_tree_counts_cross_check_matrix_tree():
    for facs in (ROW3, "1011,1101"):
        g = FactoredLfsr.from_strings(facs).graph()
        trees = list(spanning_trees(g))
        assert len(trees) == best_count(g, condensed=True)
        assert sum(tree_multiplicity(g, t) for t in trees) == best_count(g)


def _bundles(g, tree):
    return [g.edges[tuple(sorted(e))] for e in tree]


def _product_stream(g):
    """The G-tree order by definition: each condensed tree's bundles in itertools.product order."""
    for tree in spanning_trees(g):
        yield from itertools.product(*_bundles(g, tree))


def test_expansions():
    g = _toy_graph({(0, 1): 2, (1, 2): 3})
    tree = ((0, 1), (1, 2))
    assert list(spanning_trees(g)) == [tree]
    assert tree_multiplicity(g, tree) == 6
    a, b = g.edges[(0, 1)], g.edges[(1, 2)]
    all_expanded = list(g_trees(g))
    assert len(all_expanded) == 6 and len(set(all_expanded)) == 6
    # mixed radix over the bundles, last edge fastest
    assert all_expanded == [(x, y) for x in a for y in b]
    # unique expansion when every multiplicity is 1
    g1 = _toy_graph({(0, 1): 1, (1, 2): 1})
    assert list(g_trees(g1)) == [(g1.edges[(0, 1)][0], g1.edges[(1, 2)][0])]


@pytest.mark.parametrize("facs", [ROW3, N7])
def test_g_trees_start_matches_islice(facs):
    g = FactoredLfsr.from_strings(facs).graph()
    first, second = (tree_multiplicity(g, t) for t in itertools.islice(spanning_trees(g), 2))
    # inside the first condensed tree, on both sides of its end, inside
    # the second tree, and several condensed trees in
    starts = [0, 1, 5, 17, first - 1, first, first + 1, first + second // 2, first + second - 1]
    starts += [2500, 8000, 20000]
    for k in starts:
        want = list(itertools.islice(g_trees(g), k, k + 200))
        assert list(g_trees(g, 200, k)) == want
        assert want == list(itertools.islice(_product_stream(g), k, k + 200))


def test_g_trees_start_at_the_end():
    g = FactoredLfsr.from_strings(ROW3).graph()
    *_, last = spanning_trees(g)
    zg = best_count(g)
    assert list(g_trees(g, start=zg - 1)) == [tuple(b[-1] for b in _bundles(g, last))]
    with pytest.raises(ValueError, match="past the last spanning tree"):
        next(g_trees(g, start=zg))
    with pytest.raises(ValueError):
        g_trees(g, start=-1)


@pytest.mark.parametrize(
    "facs, start",
    [(N7, None), ("11,1011110010111", 10**400)],
    ids=["n7-zeta_G", "dense-count-10^400"],
)
def test_g_trees_past_the_end_raises_quickly(facs, start):
    # skipping condensed trees one at a time never ended on dense-count
    g = FactoredLfsr.from_strings(facs).graph()
    begin = time.perf_counter()
    with pytest.raises(ValueError, match="past the last spanning tree"):
        next(g_trees(g, start=best_count(g) if start is None else start))
    assert time.perf_counter() - begin < 10


def test_g_tree_stream_total_count():
    g = FactoredLfsr.from_strings(ROW3).graph()
    seen = set()
    count = 0
    for t, want in itertools.zip_longest(g_trees(g), _product_stream(g)):
        assert t == want
        count += 1
        seen.add(t)
    assert count == 926016 == len(seen) == best_count(g)


# SHA-256 over the reprs of all 1,451,520 condensed trees, in stream order
N7_TREE_ORDER_SHA256 = "7845ded1738c83447ceede95ca31db1f5519de0b4f5b0d8d7fe638cc93b3b1e9"


@pytest.mark.slow
def test_n7_reference_full_tree_enumeration():
    g = FactoredLfsr.from_strings(N7).graph()
    digest = hashlib.sha256()
    count = 0
    for tree in spanning_trees(g):
        digest.update(repr(tree).encode())
        count += 1
    assert count == 1_451_520
    assert digest.hexdigest() == N7_TREE_ORDER_SHA256


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
        join_cycles([b[0] for b in _bundles(g, t)], inst.lfsr).bits
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
    all_ones = 0b110  # suffix (1, 1)
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


def test_sampler_walk_tables_are_built_once_in_edge_order():
    # seeded draws index these lists, so their order fixes every sampled tree
    g = FactoredLfsr.from_strings(ROW3).graph()
    nbrs, cum, totals, lasts, root = g.walk_tables
    want_nbrs = [[] for _ in range(g.num_vertices)]
    want_weights = [[] for _ in range(g.num_vertices)]
    for (a, b), pairs in g.edges.items():
        want_nbrs[a].append(b)
        want_nbrs[b].append(a)
        want_weights[a].append(len(pairs))
        want_weights[b].append(len(pairs))
    assert nbrs == want_nbrs
    assert [[hi - lo for lo, hi in zip([0] + c, c)] for c in cum] == want_weights
    for v in range(g.num_vertices):
        assert want_weights[v] == [g.multiplicity(v, u) for u in nbrs[v]]
    assert totals == list(map(sum, want_weights))
    assert lasts == [len(w) - 1 for w in want_weights]
    # the heaviest vertex, the first of them on ties
    assert root == totals.index(max(totals))
    assert g.walk_tables is g.walk_tables


def test_neighbour_table_is_built_once_per_graph(monkeypatch):
    g = FactoredLfsr.from_strings(ROW3).graph()
    builds = []
    real = AdjacencyGraph.neighbours.func

    def neighbours(self):
        builds.append(self)
        return real(self)

    table = functools.cached_property(neighbours)
    table.__set_name__(AdjacencyGraph, "neighbours")
    monkeypatch.setattr(AdjacencyGraph, "neighbours", table)
    assert g.is_connected()
    assert len(list(g_trees(g, limit=50))) == 50
    rng = random.Random(1)
    for _ in range(3):
        random_spanning_tree(g, rng)
    assert best_count(g) == 926016 and best_count(g, condensed=True) == 15
    assert builds == [g]


def test_hand_built_graph_ignores_edge_key_order():
    # the same multigraph with its keys inserted sorted and shuffled
    rng = random.Random(5)
    mults = {(a, b): rng.randint(1, 3) for a in range(9) for b in range(a + 1, 9) if rng.random() < 0.5}
    mults.update({(a, a + 1): 2 for a in range(8)})
    sorted_g = _toy_graph(dict(sorted(mults.items())))
    shuffled = list(sorted_g.edges)
    rng.shuffle(shuffled)
    assert shuffled != sorted(shuffled)
    shuffled_g = AdjacencyGraph(9, {k: sorted_g.edges[k] for k in shuffled})
    assert list(g_trees(shuffled_g, limit=2000)) == list(g_trees(sorted_g, limit=2000))
    for seed in range(20):
        assert random_spanning_tree(shuffled_g, seed) == random_spanning_tree(sorted_g, seed)
    for condensed in (False, True):
        assert best_count(shuffled_g, condensed) == best_count(sorted_g, condensed)


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


def test_random_spanning_tree_uniform_over_all_g_trees():
    # every one of the 104 multigraph trees equally likely: Pearson's
    # chi-square over all of them, critical value at alpha = 0.001
    g = FactoredLfsr.from_strings("1011,10011").graph()
    index = {frozenset(t): k for k, t in enumerate(g_trees(g))}
    assert len(index) == 104 == best_count(g)
    rng = random.Random(7)
    per_tree = 200
    counts = [0] * len(index)
    for _ in range(per_tree * len(index)):
        counts[index[frozenset(random_spanning_tree(g, rng))]] += 1
    stat = sum((c - per_tree) ** 2 / per_tree for c in counts)
    assert stat < chi2.ppf(0.999, len(index) - 1)


class CountingDraws(random.Random):
    """random.Random that counts the calls the sampler draws with."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


def test_random_spanning_tree_roots_its_walk_at_the_heaviest_vertex():
    # stream-n16: vertex 0 is the zero cycle, a leaf of weight 1 among
    # 62,816 pair ends, so every walk rooted there must find that one
    # edge.  Seed 1 takes 2,366 draws for 20 trees from the heaviest
    # vertex and 1,577,463 from vertex 0.
    g = FactoredLfsr.from_strings("1001001,10000001111").graph()
    rng = CountingDraws(1)
    trees = [random_spanning_tree(g, rng) for _ in range(20)]
    assert all(len(t) == g.num_vertices - 1 for t in trees)
    assert rng.draws < 20_000


@settings(max_examples=40, deadline=None)
@given(factor_sets(), st.integers(0, 2**32 - 1))
def test_drawn_tree_joins_every_cycle_into_a_de_bruijn_sequence(polys, seed):
    inst = FactoredLfsr(polys)
    tree = random_spanning_tree(inst.graph(), seed)
    assert len(tree) == inst.psi - 1
    # the pairs must connect the cycles found by stepping every state
    labels = cycle_labels(inst.lfsr)
    parent = {c: c for c in labels}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for v in tree:
        assert labels[v] != labels[v ^ 1]
        parent[find(labels[v])] = find(labels[v ^ 1])
    assert len({find(c) for c in parent}) == 1
    # a plain window set over the cyclic sequence
    bits = join_cycles(tree, inst.lfsr).bits
    n = inst.n
    wrapped = bits + bits[: n - 1]
    assert len({wrapped[i : i + n] for i in range(len(bits))}) == len(bits) == 1 << n


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
    assert verify_de_bruijn("01", 1)
    with pytest.raises(ValueError):
        verify_de_bruijn("0101", 3)
    with pytest.raises(ValueError):
        verify_de_bruijn("0211", 2)


def test_packed_hex():
    inst = FactoredLfsr.from_strings(ROW3)
    seq = join_cycles(next(g_trees(inst.graph(), limit=1)), inst.lfsr)
    h = seq.packed_hex()
    assert len(h) == (1 << inst.n) // 4
    assert int(h, 16) == int(seq.bits, 2)
