import random
from fractions import Fraction

import pytest

from cyclejoin.adjacency import (
    PairSearch,
    best_count,
    int_log2,
    represent_special_state,
)
from cyclejoin.gf2 import is_irreducible
from cyclejoin.lfsr import Lfsr, state_to_str
from cyclejoin.pipeline import FactoredLfsr
from field_oracle import CyclotomicParams, FieldContext, cyclotomic_number
from state_oracle import advance, locate_state, step

N7 = "11,111,11111"

# golden pair counts for the 7-stage instance, vertices 1-based
N7_PAIR_COUNTS = {
    (1, 16): 1, (2, 13): 1, (2, 16): 2, (3, 14): 2, (3, 15): 1,
    (3, 16): 2, (4, 14): 1, (4, 15): 2, (4, 16): 2, (5, 10): 1,
    (5, 14): 2, (5, 15): 2, (6, 11): 2, (6, 12): 1, (6, 13): 2,
    (6, 14): 4, (6, 15): 2, (6, 16): 4, (7, 11): 1, (7, 12): 2,
    (7, 13): 2, (7, 14): 2, (7, 15): 4, (7, 16): 4, (8, 9): 1,
    (8, 10): 2, (8, 11): 2, (8, 12): 2, (8, 14): 4, (8, 15): 4,
}


def test_special_state_representation_n7_reference():
    inst = FactoredLfsr.from_strings(N7)
    rep = inst.special
    assert rep.shifts == (0, 2, 2)
    assert rep.cycle_ids == (0, 0, 2)
    assert [state_to_str(b, d) for b, d in zip(rep.blocks, (1, 2, 4))] == ["1", "11", "1010"]
    # recomposing the blocks gives back S
    assert inst.basis.compose(rep.blocks) == 1


def test_special_state_single_primitive_factor():
    inst = FactoredLfsr.from_strings("11,10011")
    rep = inst.special
    assert inst.basis.compose(rep.blocks) == 1
    assert all(b != 0 for b in rep.blocks)


def test_special_state_zero_block_is_reported():
    inst = FactoredLfsr.from_strings(N7)

    class ZeroBlockBasis:
        def decompose(self, v):
            return [0] * len(inst.factors)

    with pytest.raises(AssertionError, match="basis is corrupt"):
        represent_special_state(ZeroBlockBasis(), inst.factors)


def _local_oracle(factor, j, k, c, d):
    """All (u, w) with T^u a_j + T^w a_k = T^c a_d, by full double scan."""
    reg = Lfsr(factor.poly)
    target = advance(reg, factor.states[d], c)
    out = []
    for u in range(factor.order):
        for w in range(factor.order):
            lhs = advance(reg, factor.states[j], u) ^ advance(reg, factor.states[k], w)
            if lhs == target:
                out.append((u, w))
    return out


def test_local_pairs_primitive_count():
    inst = FactoredLfsr.from_strings("111,10011")
    for i, f in enumerate(inst.factors):
        tab = inst.tables[i]
        assert len(tab.pairs(0, 0)) == (1 << f.degree) - 2


def test_local_pairs_x_plus_one_diagonal_empty():
    inst = FactoredLfsr.from_strings(N7)
    assert inst.tables[0].pairs(0, 0) == ()


def test_local_pairs_match_brute_force_and_cyclotomic_numbers():
    inst = FactoredLfsr.from_strings(N7)
    f = inst.factors[2]  # the non-primitive factor of order 5
    tab = inst.tables[2]
    c, d = inst.special.shifts[2], inst.special.cycle_ids[2]
    params = CyclotomicParams.for_factor(f.degree, f.order)
    ctx = FieldContext(f.assoc_primitive)
    for j in range(f.t):
        for k in range(f.t):
            got = sorted(tab.pairs(j, k))
            assert got == sorted(_local_oracle(f, j, k, c, d))
            assert len(got) == cyclotomic_number(j - d, k - d, params, ctx)


def test_local_pairs_primitive_zech_equals_scan():
    inst = FactoredLfsr.from_strings("1011,1101")
    for i, f in enumerate(inst.factors):
        tab = inst.tables[i]
        c, d = inst.special.shifts[i], inst.special.cycle_ids[i]
        assert sorted(tab.pairs(0, 0)) == sorted(_local_oracle(f, 0, 0, c, d))
        # shift-and-add: T^y a + T^{c + zech(y - c)} a = T^c a, in ascending y
        zech, e = FieldContext(f.assoc_primitive).zech, f.order
        assert tab.pairs(0, 0) == tuple(
            (y, (c + zech[(y - c) % e]) % e) for y in range(e) if y != c
        )


def test_local_pairs_zero_cycle_rows():
    inst = FactoredLfsr.from_strings(N7)
    for i, f in enumerate(inst.factors):
        tab = inst.tables[i]
        c, d = inst.special.shifts[i], inst.special.cycle_ids[i]
        assert tab.pairs(f.t, d) == ((0, c),)
        assert tab.pairs(d, f.t) == ((c, 0),)
        for k in range(f.t):
            if k != d:
                assert tab.pairs(f.t, k) == ()
        assert tab.pairs(f.t, f.t) == ()


def _locate_tables(f, c, d, block):
    """Local tables built with one locate call per state, in orbit order."""
    table = {}
    for j in range(f.t):
        for u, x in enumerate(f.orbit(j)):
            if x != block:
                k, w = f.locate(x ^ block)
                table.setdefault((j, k), []).append((u, w))
    table[(f.t, d)] = [(0, c)]
    table[(d, f.t)] = [(c, 0)]
    return {key: tuple(val) for key, val in table.items()}


@pytest.mark.parametrize("facs", [N7, "11,1011110010111", "1001001,10000001111"])
def test_local_tables_match_locate_reference(facs):
    inst = FactoredLfsr.from_strings(facs)
    for i, f in enumerate(inst.factors):
        tab = inst.tables[i]
        rep = inst.special
        expected = _locate_tables(f, rep.shifts[i], rep.cycle_ids[i], rep.blocks[i])
        keys = [(j, k) for j in range(f.t + 1) for k in range(f.t + 1)]
        assert {key: tab.pairs(*key) for key in keys if tab.pairs(*key)} == expected


def test_n7_reference_pair_matrix():
    inst = FactoredLfsr.from_strings(N7)
    g = inst.graph()
    got = {(a + 1, b + 1): len(ps) for (a, b), ps in g.edges.items()}
    assert got == N7_PAIR_COUNTS


def test_zero_cycle_single_pair():
    inst = FactoredLfsr.from_strings(N7)
    g = inst.graph()
    assert g.edges[(0, 15)] == (0,)  # v = 0, conjugate v ^ 1 = S


def _search(inst):
    return PairSearch(inst.cycles, inst.tables, inst.factors, inst.basis)


@pytest.mark.parametrize("facs", [N7, "1011,1101"])
def test_self_pairs_match_brute_force(facs):
    # pairs(i, i) yields the states v of cycle i whose conjugate v ^ 1 is on
    # cycle i too; with x + 1 a factor (N7) there are none
    inst = FactoredLfsr.from_strings(facs)
    search = _search(inst)
    found = 0
    for i, c in enumerate(inst.cycles):
        v = inst.representative(i)
        orbit = set()
        for _ in range(c.period):
            orbit.add(v)
            v = step(inst.lfsr, v)
        got = list(search.pairs(i, i))
        assert len(got) == len(set(got)) == search.count(i, i)
        assert set(got) == {v for v in orbit if v ^ 1 in orbit}
        found += len(got)
    assert (found == 0) == (facs == N7)


def test_conjugate_pairs_missing_component_on_both_sides():
    inst = FactoredLfsr.from_strings(N7)
    search = _search(inst)
    # V2 = [u2[0]] and V3 = [u3[0]] both lack the first factor
    assert tuple(search.pairs(1, 2)) == ()
    assert search.count(1, 2) == 0
    assert 2 not in search.partners[1]


def _pair_oracle(inst):
    """Expand every cycle and test every state against its conjugate."""
    states = []
    for i, c in enumerate(inst.cycles):
        v = inst.representative(i)
        orbit = []
        for _ in range(c.period):
            orbit.append(v)
            v = step(inst.lfsr, v)
        states.append((set(orbit), orbit))
    edges = {}
    for i in range(inst.psi):
        for j in range(i + 1, inst.psi):
            found = set()
            for v in states[i][1]:
                if v ^ 1 in states[j][0]:
                    found.add(v)
            if found:
                edges[(i, j)] = found
    return edges


@pytest.mark.parametrize("facs", [N7, "1011,1101", "10011,11111", "11,1101,11001"])
def test_conjugate_pairs_match_brute_force(facs):
    inst = FactoredLfsr.from_strings(facs)
    got = {e: set(ps) for e, ps in inst.graph().edges.items()}
    assert got == _pair_oracle(inst)


def test_conjugate_pairs_random_instances_match_brute_force():
    pool = [p for d in range(1, 7) for p in range(1 << d, 1 << (d + 1)) if p & 1 and is_irreducible(p)]
    rng = random.Random(13)
    for _ in range(6):
        rng.shuffle(pool)
        picked, total = [], 0
        for p in pool:
            d = p.bit_length() - 1
            if total + d <= 11:
                picked.append(p)
                total += d
        if total < 2:
            continue
        inst = FactoredLfsr(picked)
        got = {e: set(ps) for e, ps in inst.graph().edges.items()}
        assert got == _pair_oracle(inst)


def test_graph_shape_n7_reference():
    inst = FactoredLfsr.from_strings(N7)
    g = inst.graph()
    nbrs, mults = g.neighbours
    assert [sum(g.multiplicity(i, j) for j in nbrs[i]) for i in range(16)] == [
        1, 3, 5, 5, 5, 15, 15, 15
    ] * 2
    assert [sum(ms) for ms in mults] == [1, 3, 5, 5, 5, 15, 15, 15] * 2
    assert [len(nbrs[i]) for i in range(16)] == [1, 2, 3, 3, 3, 6, 6, 6] * 2
    assert all(ns == sorted(ns) for ns in nbrs)
    assert g.is_connected()


def test_two_cycle_graph_single_bundle():
    inst = FactoredLfsr.from_strings("1011")  # single primitive factor
    g = inst.graph()
    assert g.num_vertices == 2
    assert list(g.edges) == [(0, 1)]
    assert len(g.edges[(0, 1)]) == 1
    assert best_count(g) == 1


def test_best_count_goldens():
    for facs, zg, zh in [
        (N7, 12485394432, 1451520),
        ("1011,1101", 393216, 51984),
        ("11,1101,11001", 926016, 15),
    ]:
        g = FactoredLfsr.from_strings(facs).graph()
        assert best_count(g) == zg
        assert best_count(g, condensed=True) == zh


def _laplacian(graph, condensed=False):
    """Dense degree-minus-adjacency matrix, read straight from the multiplicities."""
    m = [[0] * graph.num_vertices for _ in range(graph.num_vertices)]
    for (a, b), mult in graph.multiplicities.items():
        w = 1 if condensed else mult
        m[a][b] -= w
        m[b][a] -= w
        m[a][a] += w
        m[b][b] += w
    return m


def _det_fraction(m):
    """Independent determinant oracle via Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    assert det.denominator == 1
    return int(det)


def test_cofactor_invariance_small_graphs():
    for facs in ("1011", "11,1101,11001", "1011,1101"):
        g = FactoredLfsr.from_strings(facs).graph()
        m = _laplacian(g)
        n = len(m)
        expected = best_count(g)
        for i in range(n):
            for j in range(n):
                minor = [
                    [m[r][c] for c in range(n) if c != j] for r in range(n) if r != i
                ]
                sign = -1 if (i + j) % 2 else 1
                assert sign * _det_fraction(minor) == expected


@pytest.mark.parametrize("facs", ["10011,11111", "1011,1101"])
def test_aggregate_counts_match_cyclotomic_products(facs):
    """Summed pair counts over all shift placements are cyclotomic products.

    The sum over every ordered cycle pair of a component pattern equals
    the product of the cyclotomic numbers of the shared components.
    Same-cycle pairs are read as pairs(i, i), which yields a cycle's
    self-pairs once per orientation, so they are counted twice.
    """
    inst = FactoredLfsr.from_strings(facs)
    search = _search(inst)
    by_pattern = {}
    descs = inst.cycles.cycles
    for i, c1 in enumerate(descs):
        for j, c2 in enumerate(descs):
            if not any(c1.flags) or not any(c2.flags):
                continue
            key = (c1.flags, c1.indices, c2.flags, c2.indices)
            cnt = sum(1 for _ in search.pairs(i, j))
            by_pattern[key] = by_pattern.get(key, 0) + cnt
    for (f1, j1, f2, j2), total in by_pattern.items():
        if any(not a and not b for a, b in zip(f1, f2)):
            assert total == 0
            continue
        expected = 1
        ok = True
        for i, f in enumerate(inst.factors):
            d = inst.special.cycle_ids[i]
            if f1[i] and f2[i]:
                params = CyclotomicParams.for_factor(f.degree, f.order)
                ctx = FieldContext(f.assoc_primitive)
                expected *= cyclotomic_number(j1[i] - d, j2[i] - d, params, ctx)
            elif f1[i] and not f2[i]:
                ok = ok and j1[i] == d
            elif f2[i] and not f1[i]:
                ok = ok and j2[i] == d
        assert total == (expected if ok else 0)


@pytest.mark.parametrize("facs", [N7, "11,1101,11001", "11,100111001"])
def test_no_intra_cycle_pairs_when_x_plus_one_divides(facs):
    inst = FactoredLfsr.from_strings(facs)
    for i, c in enumerate(inst.cycles):
        v = inst.representative(i)
        orbit = set()
        for _ in range(c.period):
            orbit.add(v)
            v = step(inst.lfsr, v)
        assert not any(v ^ 1 in orbit for v in orbit)


def test_complement_symmetry_of_edges():
    # with x+1 a factor, complementing both cycles complements the pairs
    inst = FactoredLfsr.from_strings(N7)
    ones = (1 << inst.n) - 1
    comp = [
        locate_state(inst.representative(i) ^ ones, inst.basis, inst.factors, inst.cycles)
        for i in range(inst.psi)
    ]
    g = inst.graph()
    as_sets = {
        e: {frozenset({v, v ^ 1}) for v in ps} for e, ps in g.edges.items()
    }
    for (a, b), pairs in as_sets.items():
        ca, cb = sorted((comp[a], comp[b]))
        mirrored = {frozenset({v ^ ones, w ^ ones}) for v, w in (tuple(p) for p in pairs)}
        assert as_sets[(ca, cb)] == mirrored


def test_coprime_primitive_counts():
    # pairwise coprime periods, all primitive: shared count is the product
    # of (2^{n_i} - 2) over components active on both sides
    inst = FactoredLfsr.from_strings("11,111,1101")
    g = inst.graph()
    descs = inst.cycles.cycles
    for (a, b), ps in g.edges.items():
        c1, c2 = descs[a], descs[b]
        if not any(c1.flags) or not any(c2.flags):
            continue
        expected = 1
        for i, f in enumerate(inst.factors):
            if c1.flags[i] and c2.flags[i]:
                expected *= (1 << f.degree) - 2
        assert len(ps) == expected


def test_first_conjugate_pair():
    inst = FactoredLfsr.from_strings(N7)
    search = _search(inst)
    full = tuple(search.pairs(5, 13))
    assert len(full) == search.count(5, 13) == 4
    assert full == inst.graph().edges[(5, 13)]
    assert next(search.pairs(5, 13), None) == full[0]
    assert next(search.pairs(1, 2), None) is None


def test_each_cycle_is_set_up_once_per_search(monkeypatch):
    # dense-count in the benchmark: psi = 236, 3,545 edges
    from cyclejoin import adjacency

    calls = []
    real = adjacency.shift_levels

    def spy(flags, orders):
        calls.append(flags)
        return real(flags, orders)

    monkeypatch.setattr(adjacency, "shift_levels", spy)
    inst = FactoredLfsr.from_strings("11,1011110010111")
    inst.greedy_tree()
    assert len(calls) == inst.psi == 236
    calls.clear()
    graph = inst.graph()
    assert len(calls) == 236
    assert sum(len(graph.edges[e]) for e in graph.edges) == sum(graph.multiplicities.values())
    assert len(calls) == 236


def test_int_log2():
    assert int_log2(2**100) == 100.0
    assert abs(int_log2(12485394432) - 33.54) < 0.01
    with pytest.raises(ValueError):
        int_log2(0)
