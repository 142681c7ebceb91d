"""Checks against oracles that share no code with the package.

networkx builds the Laplacian whose cofactor sympy's Bareiss
determinant evaluates exactly and lists spanning trees with its own
iterator, sympy tests
irreducibility and powers of x over GF(2) with its own algorithms,
brute-force state stepping (state_oracle) finds the register's cycles,
which the sweep over every register of degree at most 10 turns into
pairs and a Bareiss count, and the register's automorphism Φ, whose
cycle permutation must be the package's and keep every multiplicity of
the sweep, while psi, both counts and the multiplicities must not
depend on the order in which the factors come, and Berlekamp-Massey
measures the linear
complexity of the emitted sequences, which for a de Bruijn sequence of
order n lies in [2^{n-1} + n, 2^n - 1] (Chan, Games and Key 1982).
"""

import itertools
import random

import networkx as nx
import pytest
import sympy
from networkx.algorithms.tree.mst import SpanningTreeIterator
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from cyclejoin.adjacency import _frobenius, best_count
from cyclejoin.gf2 import is_irreducible, is_primitive
from cyclejoin.joining import g_trees, join_cycles, random_spanning_tree, spanning_trees
from cyclejoin.pipeline import FactoredLfsr
from state_oracle import cycle_labels, frobenius
from test_determinant import bareiss_det
from test_pair_search import GOLDEN

SPANNING_TREE_INSTANCES = [
    "111,1011",
    "111,11111",
    "11,111,1011",
    "1011,1101",
    "11,111,11111",
    "11,1101,11001",
    "11,111,10011",
    "11,1101,1011",
    "11,1011,11111",
    # networkx's float count is off by a few on these two (2^46.3, 2^48.6)
    "111,1110101",
    "11,110011111",
    "11,111,1011,11111",  # 2^116
    "1001001,10000001111",  # 2^274
]

# total degree <= 10: generated sequences are short enough for Berlekamp-Massey
LINEAR_COMPLEXITY_INSTANCES = [
    "11,10011",
    "1011,1101",
    "11,111,11111",
    "11,1101,11001",
    "111,1011,11111",
    "11,111,1011,11111",
    "11111111111",
]


def _nx_graph(graph, weighted: bool):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    for (a, b), pairs in graph.edges.items():
        g.add_edge(a, b, weight=len(pairs) if weighted else 1)
    return g


def _nx_cofactor(graph, weighted: bool) -> int:
    """The (0, 0) cofactor of networkx's Laplacian, by sympy's exact Bareiss."""
    lap = nx.laplacian_matrix(_nx_graph(graph, weighted), weight="weight").toarray()
    return sympy.Matrix([[int(x) for x in row[1:]] for row in lap[1:]]).det(method="bareiss")


@pytest.mark.parametrize("facs", SPANNING_TREE_INSTANCES)
def test_best_count_matches_networkx(facs):
    graph = FactoredLfsr.from_strings(facs).graph()
    assert best_count(graph) == _nx_cofactor(graph, True)
    assert best_count(graph, condensed=True) == _nx_cofactor(graph, False)


def _edge_set(edges):
    return frozenset(tuple(sorted(e)) for e in edges)


@pytest.mark.parametrize(
    "facs", ["11,1101,11001", pytest.param("1011,1101", marks=pytest.mark.slow)]
)
def test_spanning_trees_match_networkx_iterator(facs):
    # 15 and 51,984 condensed trees; networkx lists the second in about 35 s
    graph = FactoredLfsr.from_strings(facs).graph()
    got = [_edge_set(t) for t in spanning_trees(graph)]
    assert len(set(got)) == len(got)
    want = {_edge_set(t.edges) for t in SpanningTreeIterator(_nx_graph(graph, False))}
    assert set(got) == want


@pytest.mark.parametrize("facs", ["11,111,11111", "10011,11111"])
def test_spanning_tree_stream_prefix_is_distinct_networkx_trees(facs):
    # 1,451,520 and 8,962,125,672,491,103 condensed trees, too many for
    # networkx's iterator: the first 2,000 streamed must be distinct trees
    graph = FactoredLfsr.from_strings(facs).graph()
    got = [_edge_set(t) for t in itertools.islice(spanning_trees(graph), 2000)]
    assert len(got) == 2000 == len(set(got))
    for edges in got:
        tree = nx.Graph(edges)
        tree.add_nodes_from(range(graph.num_vertices))
        assert nx.is_tree(tree)


@pytest.mark.parametrize("facs", GOLDEN)
def test_greedy_tree_joins_the_brute_force_cycles(facs):
    inst = FactoredLfsr.from_strings(facs)
    labels = cycle_labels(inst.lfsr)
    cycle_of = {labels[inst.representative(i)]: i for i in range(inst.psi)}
    assert len(cycle_of) == inst.psi == max(labels) + 1
    parent = list(range(inst.psi))

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for (a, b), (v,) in inst.greedy_tree().edges.items():
        # v on cycle a, its conjugate v ^ 1 on cycle b
        assert (cycle_of[labels[v]], cycle_of[labels[v ^ 1]]) == (a, b)
        parent[find(a)] = find(b)
    assert len({find(c) for c in range(inst.psi)}) == 1


SWEEP_IRREDUCIBLE = [
    p for d in range(1, 11) for p in range(1 << d, 1 << (d + 1)) if p & 1 and is_irreducible(p)
]


def _factor_sets(n):
    """Every set of pairwise distinct irreducibles (x excluded) of total degree n."""
    sets = []

    def extend(start, picked, total):
        if total == n:
            sets.append(list(picked))
            return
        for k in range(start, len(SWEEP_IRREDUCIBLE)):
            p = SWEEP_IRREDUCIBLE[k]
            if total + p.bit_length() - 1 > n:
                break  # ascending degrees: every later factor is too big too
            picked.append(p)
            extend(k + 1, picked, total + p.bit_length() - 1)
            picked.pop()

    extend(0, [], 0)
    return sets


def test_factor_sets_of_the_sweep():
    assert sum(len(_factor_sets(n)) for n in range(2, 11)) == 681


def _brute_force_bundles(inst):
    """Per state, its cycle index, and per edge the set of its pairs' states v.

    Cycles come from stepping the register (state_oracle.cycle_labels);
    every state v with a zero first bit is tested against v ^ 1.
    """
    labels = cycle_labels(inst.lfsr)
    cycle_of = {labels[inst.representative(i)]: i for i in range(inst.psi)}
    assert len(cycle_of) == inst.psi == max(labels) + 1
    index = [cycle_of[label] for label in labels]
    bundles = {}
    for v in range(0, 1 << inst.n, 2):
        a, b = index[v], index[v ^ 1]
        if a > b:
            a, b, v = b, a, v ^ 1
        if a != b:
            bundles.setdefault((a, b), set()).add(v)
    return index, bundles


@pytest.mark.parametrize("n", range(2, 11))
def test_every_small_register_matches_brute_force(n):
    for polys in _factor_sets(n):
        inst = FactoredLfsr(polys)
        index, bundles = _brute_force_bundles(inst)
        graph = inst.graph()
        assert graph.multiplicities == {e: len(vs) for e, vs in bundles.items()}, polys
        for e, vs in bundles.items():
            pairs = graph.edges[e]
            assert len(pairs) == len(set(pairs)) and set(pairs) == vs, (polys, e)
        minor = [[0] * (inst.psi - 1) for _ in range(inst.psi - 1)]
        for (a, b), vs in bundles.items():
            for i, j in ((a, b), (b, a)):
                if i:
                    minor[i - 1][i - 1] += len(vs)
                    if j:
                        minor[i - 1][j - 1] -= len(vs)
        assert best_count(graph) == bareiss_det(minor), polys
        parent = list(range(inst.psi))

        def find(c):
            while parent[c] != c:
                c = parent[c]
            return c

        tree = inst.greedy_tree().edges
        assert len(tree) == inst.psi - 1
        for (a, b), (v,) in tree.items():
            assert (index[v], index[v ^ 1]) == (a, b), polys
            parent[find(a)] = find(b)
        assert len({find(c) for c in range(inst.psi)}) == 1, polys


@pytest.mark.parametrize("n", range(2, 9))
def test_counts_do_not_depend_on_the_factor_order(n):
    # each order gives its own basis, cycle numbering and Φ, so its own
    # blocks and primes; the register, and so every count, is the same
    for polys in _factor_sets(n):
        seen = set()
        for order in itertools.permutations(polys):
            inst = FactoredLfsr(list(order))
            graph = inst.graph()
            mults = sorted(graph.multiplicities.values())
            seen.add((inst.psi, best_count(graph), best_count(graph, condensed=True), tuple(mults)))
        assert len(seen) == 1, polys


def _stepped_permutation(inst, index):
    """Per cycle, the cycle that the stepped Φ sends its states to; index[v] is v's cycle."""
    phi = frobenius(inst.lfsr)
    image = [None] * inst.psi
    for v, w in enumerate(phi):
        # Φ is linear and fixes S, so it maps each pair (v, v ^ 1) to a pair
        assert phi[v ^ 1] == w ^ 1
        # and maps cycles onto cycles
        assert image[index[v]] in (None, index[w])
        image[index[v]] = index[w]
    return tuple(image)


@pytest.mark.parametrize("facs", GOLDEN)
def test_frobenius_matches_the_stepped_oracle(facs):
    inst = FactoredLfsr.from_strings(facs)
    labels = cycle_labels(inst.lfsr)
    cycle_of = {labels[inst.representative(i)]: i for i in range(inst.psi)}
    pi = inst.graph()._phi
    assert pi == _stepped_permutation(inst, [cycle_of[label] for label in labels])
    special = inst.cycles.special_index
    assert pi[0] == 0 and pi[special] == special


@pytest.mark.parametrize("n", range(2, 11))
def test_every_small_register_keeps_its_multiplicities_under_frobenius(n):
    for polys in _factor_sets(n):
        inst = FactoredLfsr(polys)
        index, bundles = _brute_force_bundles(inst)
        pi = _stepped_permutation(inst, index)
        assert pi == _frobenius(inst.cycles, inst.factors, inst.basis), polys
        mults = {e: len(vs) for e, vs in bundles.items()}
        for (a, b), m in mults.items():
            assert mults.get((min(pi[a], pi[b]), max(pi[a], pi[b]))) == m, (polys, a, b)


def test_is_irreducible_matches_sympy_up_to_degree_10():
    x = sympy.Symbol("x")
    for p in range(2, 1 << 11):
        coeffs = [int(c) for c in format(p, "b")]
        expected = sympy.Poly(coeffs, x, modulus=2).is_irreducible
        assert is_irreducible(p) == expected, format(p, "b")


def test_is_primitive_matches_sympy_up_to_degree_10():
    # primitive: irreducible, and x has order exactly 2^d - 1 modulo p
    x = sympy.Symbol("x")
    for p in range(2, 1 << 11):
        coeffs = [int(c) for c in format(p, "b")]
        order = (1 << (len(coeffs) - 1)) - 1

        def x_pow_is_one(k):
            return gf_pow_mod([1, 0], k, coeffs, 2, ZZ) == [1]

        expected = (
            sympy.Poly(coeffs, x, modulus=2).is_irreducible
            and x_pow_is_one(order)
            and not any(x_pow_is_one(order // q) for q in sympy.factorint(order))
        )
        assert bool(is_primitive(p)) == expected, format(p, "b")


def _linear_complexity(bits) -> int:
    """Berlekamp-Massey over GF(2), polynomials held as int bit masks."""
    c, b = 1, 1  # connection polynomials, bit i = coefficient of x^i
    length, m = 0, -1
    window = 0  # bit i = bits[k - i]
    for k, s in enumerate(bits):
        window = window << 1 | s
        if (c & window).bit_count() & 1:
            t = c
            c ^= b << (k - m)
            if 2 * length <= k:
                length, m, b = k + 1 - length, k, t
    return length


def test_berlekamp_massey_known_values():
    assert _linear_complexity([0, 0, 0, 0]) == 0
    assert _linear_complexity([0, 0, 0, 1]) == 4
    assert _linear_complexity([1, 0, 0, 1, 0, 1, 1] * 2) == 3  # m-sequence of x^3 + x + 1
    assert _linear_complexity([0, 0, 0, 1, 0, 1, 1, 1] * 2) == 7  # a de Bruijn sequence, n = 3


@pytest.mark.parametrize("facs", LINEAR_COMPLEXITY_INSTANCES)
def test_linear_complexity_of_generated_sequences(facs):
    inst = FactoredLfsr.from_strings(facs)
    graph = inst.graph()
    rng = random.Random(facs)
    trees = list(itertools.islice(g_trees(graph), 2))
    trees += [random_spanning_tree(graph, rng) for _ in range(2)]
    n = inst.n
    for tree in trees:
        bits = [int(c) for c in join_cycles(tree, inst.lfsr).bits]
        # two periods determine the linear complexity of a periodic sequence
        lc = _linear_complexity(bits + bits)
        assert (1 << (n - 1)) + n <= lc <= (1 << n) - 1
