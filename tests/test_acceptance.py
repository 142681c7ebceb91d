"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

import contextlib
import random
import time

from cyclejoin.adjacency import best_count, int_log2
from cyclejoin.gf2 import is_irreducible, poly_powmod
from cyclejoin.joining import (
    g_trees,
    join_cycles,
    spanning_trees,
    tree_multiplicity,
    verify_de_bruijn,
)
from cyclejoin.lfsr import state_to_str
from cyclejoin.pipeline import FactoredLfsr
from field_oracle import CyclotomicParams, FieldContext, cyclotomic_number
from state_oracle import step

# golden desk-scale instances (factors, n, psi)
GOLDEN_ROWS_N12 = [
    ("1011,1101", 6, 10),
    ("11,111,11111", 7, 16),
    ("11,1101,11001", 8, 8),
    ("10011,11111", 8, 20),
    ("111,1011,11111", 9, 16),
    ("11,100111001", 9, 32),
    ("11,111,1011,11111", 10, 32),
    ("11111111111", 10, 94),
    ("111,1011,1001001", 11, 60),
    ("101011100011", 11, 90),
    ("1001001,1010111", 12, 74),
]

N7_CYCLE_TABLE = [
    ("0000000", 1), ("1011011", 3), ("1000110", 5), ("0111101", 5),
    ("0010100", 5), ("0011101", 15), ("1100110", 15), ("1001111", 15),
    ("1111111", 1), ("0100100", 3), ("0111001", 5), ("1000010", 5),
    ("1101011", 5), ("1100010", 15), ("0011001", 15), ("0110000", 15),
]

N7_PAIR_COUNTS = {
    (1, 16): 1, (2, 13): 1, (2, 16): 2, (3, 14): 2, (3, 15): 1,
    (3, 16): 2, (4, 14): 1, (4, 15): 2, (4, 16): 2, (5, 10): 1,
    (5, 14): 2, (5, 15): 2, (6, 11): 2, (6, 12): 1, (6, 13): 2,
    (6, 14): 4, (6, 15): 2, (6, 16): 4, (7, 11): 1, (7, 12): 2,
    (7, 13): 2, (7, 14): 2, (7, 15): 4, (7, 16): 4, (8, 9): 1,
    (8, 10): 2, (8, 11): 2, (8, 12): 2, (8, 14): 4, (8, 15): 4,
}

_cache: dict[str, FactoredLfsr] = {}


def instance(facs: str) -> FactoredLfsr:
    if facs not in _cache:
        _cache[facs] = FactoredLfsr.from_strings(facs)
    return _cache[facs]


@contextlib.contextmanager
def report(criterion: str, detail: str = ""):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL")
        raise
    print(f"ACCEPTANCE {criterion}: PASS{' — ' + detail if detail else ''}")


def test_criterion_1_n7_reference_reproduction():
    with report("1 (n=7 reference instance)", "cycle table, pair counts and both tree counts exact"):
        t0 = time.monotonic()
        inst = FactoredLfsr.from_strings("11,111,11111")
        assert inst.psi == 16
        got_rows = [
            (state_to_str(inst.representative(i), 7), c.period)
            for i, c in enumerate(inst.cycles)
        ]
        assert got_rows == N7_CYCLE_TABLE
        graph = inst.graph()
        got_edges = {(a + 1, b + 1): len(ps) for (a, b), ps in graph.edges.items()}
        assert got_edges == N7_PAIR_COUNTS
        assert best_count(graph) == 12_485_394_432
        assert best_count(graph, condensed=True) == 1_451_520
        elapsed = time.monotonic() - t0
        assert elapsed < 60, f"took {elapsed:.1f}s"


def test_criterion_2_reference_count_suite():
    with report("2 (golden exact-count suite)"):
        inst = instance("1011,1101")
        g = inst.graph()
        assert (inst.psi, best_count(g), best_count(g, True)) == (10, 393_216, 51_984)

        inst = instance("11,1101,11001")
        g = inst.graph()
        assert (inst.psi, best_count(g), best_count(g, True)) == (8, 926_016, 15)

        inst = instance("10011,11111")
        g = inst.graph()
        assert inst.psi == 20
        assert abs(int_log2(best_count(g)) - 60.8) <= 0.05
        assert abs(int_log2(best_count(g, True)) - 53.0) <= 0.05

        inst = instance("111,1011,11111")
        assert inst.psi == 16
        assert abs(int_log2(best_count(inst.graph())) - 54.4) <= 0.05

        inst = instance("11,111,1011,11111")
        assert inst.psi == 32
        assert abs(int_log2(best_count(inst.graph())) - 116.0) <= 0.05


def test_criterion_3_de_bruijn_property_all_rows():
    with report("3 (100 sequences per desk-scale row)"):
        for facs, n, _ in GOLDEN_ROWS_N12:
            t0 = time.monotonic()
            inst = instance(facs)
            seqs = [join_cycles(t, inst.lfsr) for t in g_trees(inst.graph(), limit=100)]
            assert len(seqs) == 100
            assert all(verify_de_bruijn(s.bits, n) for s in seqs)
            assert len({s.bits for s in seqs}) == 100
            half = 1 << (n - 1)
            assert all(s.bits.count("1") == half for s in seqs)
            elapsed = time.monotonic() - t0
            assert elapsed < 300, f"{facs} took {elapsed:.1f}s"


def _oracle_edges(inst):
    orbits = []
    for i, c in enumerate(inst.cycles):
        v = inst.representative(i)
        orbit = []
        for _ in range(c.period):
            orbit.append(v)
            v = step(inst.lfsr, v)
        orbits.append((orbit, set(orbit)))
    edges = {}
    for i in range(inst.psi):
        for j in range(i + 1, inst.psi):
            hits = {v for v in orbits[i][0] if v ^ 1 in orbits[j][1]}
            if hits:
                edges[(i, j)] = hits
    return edges


def test_criterion_4_brute_force_oracle_equivalence():
    with report("4 (conjugate pairs vs state-expansion oracle)"):
        for facs, n, _ in GOLDEN_ROWS_N12:
            inst = instance(facs)
            got = {e: set(ps) for e, ps in inst.graph().edges.items()}
            assert got == _oracle_edges(inst), f"mismatch for {facs}"


def test_criterion_5_matrix_tree_cross_check():
    with report("5 (tree enumeration vs BEST counts)"):
        for facs in ("11,1101,11001", "1011,1101"):
            inst = instance(facs)
            g = inst.graph()
            zhat = best_count(g, condensed=True)
            assert zhat <= 10**6
            trees = list(spanning_trees(g))
            assert len(trees) == zhat
            assert sum(tree_multiplicity(g, t) for t in trees) == best_count(g)


def _random_factor_sets(seed, count, max_n=12):
    pool = [
        p
        for d in range(1, 9)
        for p in range(1 << d, 1 << (d + 1))
        if p & 1 and is_irreducible(p)
    ]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rng.shuffle(pool)
        picked, total = [], 0
        for p in pool:
            d = p.bit_length() - 1
            if total + d <= max_n:
                picked.append(p)
                total += d
            if total >= max_n - 1:
                break
        if total >= 2:
            out.append(picked)
    return out


def test_criterion_6_structural_invariants():
    with report("6 (randomized structural invariants)"):
        rng = random.Random(99)
        for polys in _random_factor_sets(seed=6, count=8):
            inst = FactoredLfsr(polys)
            # cycle periods partition the state space by count
            assert sum(c.period for c in inst.cycles) == 1 << inst.n
            # basis invertibility: round trips through P and back
            for _ in range(25):
                v = rng.randrange(1 << inst.n)
                assert inst.basis.compose(inst.basis.decompose(v)) == v
            for f in inst.factors:
                ctx = FieldContext(f.assoc_primitive)
                # Zech identity over the whole table, powers recomputed
                for l in range(1, ctx.e):
                    assert poly_powmod(0b10, ctx.zech[l], ctx.modulus) == (
                        poly_powmod(0b10, l, ctx.modulus) ^ 1
                    )
                # cyclotomic totals
                params = CyclotomicParams.for_factor(f.degree, f.order)
                total = sum(
                    cyclotomic_number(i, j, params, ctx)
                    for i in range(f.t)
                    for j in range(f.t)
                )
                assert total == (1 << f.degree) - 2
            if 0b11 in polys:
                # conjugates never share a cycle when x+1 divides f
                for i, c in enumerate(inst.cycles):
                    v = inst.representative(i)
                    orbit = set()
                    for _ in range(c.period):
                        orbit.add(v)
                        v = step(inst.lfsr, v)
                    assert not any(u ^ 1 in orbit for u in orbit)


def test_criterion_7_scale_probe_n16():
    with report("7 (n=16 count-mode scale probe)"):
        t0 = time.monotonic()
        inst = FactoredLfsr.from_strings("1001001,10000001111")
        assert inst.n == 16
        assert inst.psi == 32
        zg = best_count(inst.graph())
        assert abs(int_log2(zg) - 274.2) <= 0.05
        elapsed = time.monotonic() - t0
        assert elapsed < 1800, f"took {elapsed:.1f}s"
