"""The packed multimodular cofactor against exact rational references.

`bareiss_det` is the dense fraction-free elimination that best_count
used before; `_det_fraction` is plain Gaussian elimination over the
rationals, and `_laplacian` builds the dense matrix they read from the
multiplicities.  None shares code with the packed determinant, which
takes each block as dense rows and must agree with both on the
Laplacian minors of the golden instances, on drawn multigraphs
(connected or not), on drawn semidefinite matrices (also with primes
forced small, so that most primes meet a vanishing pivot and are
skipped), and on weighted matrices built to reach an unlucky prime and
entries beyond the modulus.  The exact independent-set step before the
primes gets its own edge cases: nothing left after it, a zero
diagonal, a prime dividing the lcm of the eliminated diagonal, and a
scaled Schur complement whose entries pass the modulus or whose first
pivot vanishes mod p.  A singular minor must end within the primes the
skip rule allows.  The slot bound is checked over row and digit
counts, and the cofactor's peak memory on a mid-size register.  The
split by the graph's permutation π is checked on drawn multigraphs
symmetrised under a drawn π with mixed orbit sizes, and by the block
sizes and counts of dense-count; on both, every block read through
`_block` must have the symmetry its engine relies on (S M_±1
symmetric, and (S M_λ)^T = S M_1/λ modulo each prime for the λ of
order d >= 3).  The primes p = 1 (mod k) and their roots of unity are
checked against sympy.  The modular elimination is checked against
sympy modulo primes and modulo squarefree products of primes, with
signed entries and with entries that share a prime with the modulus,
which split it; dense-count must take one elimination per λ modulo the
product of its primes, search its primes once per graph, come out
right when those primes are small enough to split the modulus, and
stay within a peak memory bound.  A list of primes too short for its
bound raises, in both engines.
"""

import itertools
import math
import random
import time
import tracemalloc

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclejoin import adjacency
from cyclejoin.adjacency import (
    AdjacencyGraph,
    _block,
    _independent_schur,
    _det_mod,
    _digit_width,
    _is_prime,
    _pack,
    _slot_prime_limit,
    _spd_det,
    _spd_det_mod,
    _unity_det,
    _unity_primes,
    _unpack,
    best_count,
)
from cyclejoin.pipeline import FactoredLfsr
from test_adjacency import _det_fraction, _laplacian
from test_pair_search import GOLDEN

# dense-count in the benchmark: psi = 236, 1184- and 1134-bit counts
DENSE_FACTORS = "11,1011110010111"
DENSE_ZETA_G = int(
    "1511175496145308605557648757787611722721695342358688533273056224668537669630943339307619950586"
    "3686214913862033244677374713218637909170267811058507659813545950274082491042749583091403680662"
    "7935952559833737661759516410427424065913708609536000000000000000000000000000000000000000000000"
    "000000000000000000000000000000000000000000000000000000000000000000000000000"
)
DENSE_ZETA_GHAT = int(
    "1379374807792272158937870654946357053469265029009064293076560044646929588386734107590879087061"
    "9266134025832427036758273361545992540003027348724169477766520623481807668641899659512653587088"
    "3295907335848928776483535220474584152840439973701107440193223638906011109862811964892684241655"
    "488774838884931888995124401462429339300976075502857121431552"
)


def bareiss_det(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[-1][-1]


def _minor(graph, condensed):
    return [row[1:] for row in _laplacian(graph, condensed)[1:]]


def _listed_primes(m):
    """The primes best_count lists for a λ = 1 block of m rows and k = 1, largest first."""
    return (p for p, _ in _unity_primes(1, _slot_prime_limit(m)))


def _det(a, primes=None):
    """_spd_det of a matrix, with the primes best_count would list for it by default."""
    return _spd_det(a, _listed_primes(len(a)) if primes is None else primes)


def _check_against_references(graph, with_fraction=True):
    for condensed in (False, True):
        minor = _minor(graph, condensed)
        expected = bareiss_det(minor)
        assert best_count(graph, condensed) == expected
        if with_fraction:
            assert _det_fraction(minor) == expected


# every golden instance but dense-count has psi <= 120
@pytest.mark.parametrize("facs", [f for f in GOLDEN if f != DENSE_FACTORS])
def test_golden_counts_match_references(facs):
    inst = FactoredLfsr.from_strings(facs)
    assert inst.psi <= 120
    # the Fraction oracle takes seconds per minor beyond psi = 60
    _check_against_references(inst.graph(), with_fraction=inst.psi <= 60)


def test_dense_count_recorded_counts():
    g = FactoredLfsr.from_strings(DENSE_FACTORS).graph()
    assert g.num_vertices == 236
    assert best_count(g) == DENSE_ZETA_G
    assert best_count(g, condensed=True) == DENSE_ZETA_GHAT


@st.composite
def multigraphs(draw):
    psi = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    edges = {}
    label = 1
    for a in range(psi):
        for b in range(a + 1, psi):
            if draw(st.floats(0.0, 1.0)) < density:
                mult = draw(st.integers(1, 4))
                edges[(a, b)] = tuple(2 * (label + k) for k in range(mult))
                label += mult
    return AdjacencyGraph(psi, edges)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_drawn_multigraphs_match_references(graph):
    _check_against_references(graph)
    if not graph.is_connected():
        assert best_count(graph) == best_count(graph, condensed=True) == 0



@st.composite
def symmetric_multigraphs(draw):
    # a permutation π of the vertices that fixes vertex 0, with drawn
    # cycle lengths, and one drawn multiplicity per π-orbit of vertex pairs
    lengths = draw(st.lists(st.integers(1, 6), max_size=7))
    psi = 1 + sum(lengths)
    order = draw(st.permutations(range(1, psi)))
    phi = list(range(psi))
    start = 0
    for n in lengths:
        cycle = order[start : start + n]
        for t, v in enumerate(cycle):
            phi[v] = cycle[(t + 1) % n]
        start += n
    density = draw(st.floats(0.0, 1.0))
    mults = {}
    for a in range(psi):
        for b in range(a + 1, psi):
            if (a, b) in mults:
                continue
            mult = draw(st.integers(1, 4)) if draw(st.floats(0.0, 1.0)) < density else 0
            x, y = a, b
            while True:
                mults[(min(x, y), max(x, y))] = mult
                x, y = phi[x], phi[y]
                if (x, y) == (a, b):
                    break
    edges, label = {}, 1
    for e, mult in mults.items():
        if mult:
            edges[e] = tuple(2 * (label + k) for k in range(mult))
            label += mult
    graph = AdjacencyGraph(psi, edges)
    graph._phi = tuple(phi)
    return graph


@settings(max_examples=80, deadline=None)
@given(symmetric_multigraphs())
def test_drawn_symmetric_multigraphs_match_bareiss(graph):
    for condensed in (False, True):
        assert best_count(graph, condensed) == bareiss_det(_minor(graph, condensed))


def _orbit_sizes(graph):
    """The sizes of π's orbits on vertices 1, 2, ..., numbered as best_count numbers them."""
    sizes, seen = [], {0}
    for v in range(1, graph.num_vertices):
        if v not in seen:
            sizes.append(0)
            while v not in seen:
                seen.add(v)
                v = graph._phi[v]
                sizes[-1] += 1
    return sizes


def _check_block_symmetries(graph):
    """Read every block best_count builds through _block, and check the symmetries its engines rely on.

    S M_±1 is symmetric, and for each λ of order d >= 3 on the graph's
    primes, (S M_λ)^T = S M_1/λ modulo that prime, so modulo their product.
    """
    sizes = _orbit_sizes(graph)
    k = math.lcm(*sizes)
    for condensed in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy(mp, "_block")
            best_count(graph, condensed)
        blocks = {}
        for (rows, block, d, _), mat in calls:
            blocks.setdefault((d, tuple(block)), (rows, mat))
        assert {d for d, _ in blocks} == {d for s in sizes for d in range(1, s + 1) if s % d == 0}
        for (d, block), (rows, mat) in blocks.items():
            s = [sizes[a] for a in block]

            def scaled(lam, p):
                m_lam = _block(rows, list(block), d, [pow(lam, r, p) for r in range(d)])
                return [[sb * v % p for v in row] for sb, row in zip(s, m_lam)]

            if d <= 2:
                sm = [[sb * v for v in row] for sb, row in zip(s, mat)]
                assert sm == [list(col) for col in zip(*sm)], d
                continue
            assert graph._primes._found
            for p, z in graph._primes._found:
                for j in range(1, d):
                    if math.gcd(j, d) == 1:
                        lam = pow(z, k // d * j, p)
                        assert pow(lam, d, p) == 1 and all(pow(lam, e, p) != 1 for e in range(1, d))
                        sm = scaled(lam, p)
                        assert [list(col) for col in zip(*sm)] == scaled(pow(lam, -1, p), p), (d, p, j)


def test_dense_count_blocks_have_the_symmetries_of_their_engines():
    _check_block_symmetries(_fresh_dense_graph())


@settings(max_examples=40, deadline=None)
@given(symmetric_multigraphs())
def test_drawn_symmetric_multigraph_blocks_have_the_symmetries_of_their_engines(graph):
    if graph.is_connected():
        _check_block_symmetries(graph)


def _two_triangles():
    # every diagonal entry of the minor is positive, and the minor is singular
    edges = {(a, b): (2 * (a * 6 + b),)
             for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]}
    return AdjacencyGraph(6, edges)


def test_disconnected_graph_without_isolated_vertices():
    graph = _two_triangles()
    assert not graph.is_connected()
    assert best_count(graph) == best_count(graph, condensed=True) == 0
    assert bareiss_det(_minor(graph, False)) == 0


def test_singular_minor_without_connectivity_check():
    # straight into the determinant: every prime meets a zero pivot, and
    # the skip rule must still end the loop at 0
    minor = _minor(_two_triangles(), False)
    start = time.perf_counter()
    assert _det(minor) == 0
    assert time.perf_counter() - start < 1.0


def test_singular_minor_ends_within_the_skip_rule(monkeypatch):
    # two random multigraph components of 20 vertices: the minor drops a
    # vertex of the first, so the second's block is singular and every
    # prime meets a vanishing pivot
    rng = random.Random(7)
    edges = {}
    for base in (0, 20):
        for a in range(base, base + 20):
            for b in range(a + 1, base + 20):
                if rng.random() < 0.3 or b == a + 1:
                    edges[(a, b)] = tuple(range(2 * len(edges), 2 * len(edges) + rng.randint(1, 4)))
    graph = AdjacencyGraph(40, edges)
    assert not graph.is_connected()
    minor = _minor(graph, False)
    _, _, upper = _schur(minor)
    s_diag = [row[0] for row in upper]
    assert min(s_diag) > 0
    calls = _spy(monkeypatch, "_spd_det_mod")
    assert _det(minor) == 0 == bareiss_det(minor)
    ks = {k for _, (k, _) in calls}
    assert ks and max(ks) < len(upper)  # every prime was skipped
    assert all(p >> 28 for (_, p), _ in calls)
    leading = math.prod(s_diag[: max(ks) + 1])
    assert len(calls) <= -(-leading.bit_length() // 28) + 1


def _weighted_path_minor(weights):
    """Laplacian minor of the path 0 - 1 - ... - m with edge (i-1, i) of weight w_i."""
    m = len(weights)
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        a[i][i] = weights[i] + (weights[i + 1] if i + 1 < m else 0)
        if i + 1 < m:
            a[i][i + 1] = a[i + 1][i] = -weights[i + 1]
    return a


def _reduced_rows(a, p):
    """The upper triangle of a, each entry reduced mod p, packed one row per int."""
    return [_pack([v % p for v in row[i:]]) for i, row in enumerate(a)]


@pytest.mark.parametrize(
    "path_weights",
    [
        # first leading minor w1 + w2 = p1, entries past p1 and past 2^64
        lambda p1, p2: (0, [p1 - 7, 7, 3 * p1 + 5, (1 << 70) + 1, p1]),
        # second leading minor w1 w2 + w1 w3 + w2 w3 = p1 and largest entry p2
        lambda p1, p2: (1, [1, 1, (p1 - 1) // 2, p2 - (p1 - 1) // 2, 3]),
    ],
)
def test_unlucky_prime_and_large_entries(path_weights):
    p1, p2 = itertools.islice(_listed_primes(5), 2)
    vanishing, weights = path_weights(p1, p2)
    a = _weighted_path_minor(weights)
    assert max(abs(v) for row in a for v in row) >= p2
    assert _spd_det_mod(_reduced_rows(a, p1), p1)[0] == vanishing
    expected = math.prod(weights)  # a path has one spanning tree of that weight
    assert _det(a) == expected == bareiss_det(a) == _det_fraction(a)


def test_slot_limit_is_the_largest_safe_modulus():
    for r in [1, 2, 3, 10, 31, 118, 235, 315, 1000, 100_000]:
        limit = _slot_prime_limit(r)
        assert limit * limit * (r + 2) < 1 << 64 <= (limit + 1) ** 2 * (r + 2)
        primes = list(itertools.islice(_listed_primes(r), 5))
        assert primes == sorted(primes, reverse=True) and primes[0] <= limit
        assert all(sympy.isprime(q) for q in primes)
        assert sympy.prevprime(limit + 1) == primes[0]
        widest = limit.bit_length() - 2
        for wide_digits in [1, 2, 3, 4, 5, 7, 10, 11, 31, 100]:
            bits = wide_digits * widest
            shift, ndigits = _digit_width(bits, limit)
            assert (ndigits - 1) * shift < bits <= ndigits * shift
            # the widest digits hold at least four, and past them the width
            # narrows only as far as the slots need
            assert shift == widest or wide_digits > 4
            assert shift == widest or -(-bits // (shift + 1)) << (shift + 1) > 2 * limit
            # the largest prime, and the largest below 2^shift
            for p in {sympy.prevprime(limit + 1), sympy.prevprime(1 << shift)}:
                # worst start: every digit 2^shift - 1 and every c_t = p - 1;
                # a negative entry starts at most at the offset
                load = sum([p - 1] * ndigits)
                offset = -(-(load << shift) // p) * p
                assert ((1 << shift) - 1) * load <= offset
                # then r - 1 updates below p^2 each
                assert offset + (r - 1) * (p - 1) ** 2 < 1 << 64, (r, ndigits, p)


def test_is_prime_matches_sympy():
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5; 2, 3, 5, 7
    for n in [2047, 1373653, 25326001, 3215031751]:
        assert not _is_prime(n)
    for n in range(5000):
        assert _is_prime(n) == sympy.isprime(n), n
    # every listed prime is at most the largest slot limit, below
    # 4759123141, the first composite the bases 2, 7, 61 pass
    limit = _slot_prime_limit(0)
    assert limit < 4759123141
    for n in range(limit - 3000, limit + 1):
        assert _is_prime(n) == sympy.isprime(n), n
    for n in range(4759123141 - 500, 4759123141):
        assert _is_prime(n) == sympy.isprime(n), n
    rng = random.Random(62)
    for n in [rng.randrange(4759123141) | 1 for _ in range(3000)]:
        assert _is_prime(n) == sympy.isprime(n), n
    # at and above it the test is not exact, and says so
    for n in [4759123141, 4759123143, 3825123056546413051, sympy.prevprime(1 << 62), 1 << 82]:
        with pytest.raises(ValueError, match="exact"):
            _is_prime(n)


@pytest.mark.parametrize("k", [1, 3, 4, 6, 12, 60])
def test_unity_primes_hold_roots_of_the_order(k):
    top = _slot_prime_limit(235)
    primes = list(itertools.islice(_unity_primes(k, top), 4))
    assert [p for p, _ in primes] == sorted((p for p, _ in primes), reverse=True)
    for p, z in primes:
        assert p <= top and (p - 1) % k == 0 and sympy.isprime(p) and p % 2
        assert sympy.n_order(z, p) == k
    assert primes[0][0] == max(p for p in range(top - 120 * k, top + 1) if (p - 1) % k == 0 and sympy.isprime(p) and p % 2)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 13, (1 << 61) - 1]),
    st.integers(0, 6).flatmap(
        lambda m: st.lists(st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=m, max_size=m)
    ),
)
def test_det_mod_matches_sympy(p, a):
    # small entries and small primes give zero pivots, row swaps and
    # singular matrices
    expected = int(sympy.Matrix(a).det()) % p if a else 1
    assert _det_mod([[v % p for v in row] for row in a], p) == expected


_COMPOSITES = [(3, 5, 7), (13, 37), ((1 << 61) - 1, (1 << 31) - 1)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(_COMPOSITES).flatmap(
        lambda qs: st.tuples(
            st.just(qs),
            st.integers(0, 6).flatmap(
                lambda m: st.lists(
                    st.lists(
                        # small entries, some of them multiples of a prime of M: non-units
                        st.builds(lambda v, q: v * q, st.integers(-3, 3), st.sampled_from((1, 1) + qs)),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=m,
                    max_size=m,
                )
            ),
        )
    )
)
@example(((3, 5, 7), [[3, 1], [5, 1]]))
@example(((13, 37), [[13, 1, 0], [0, 2, 1], [37, 0, 1]]))
def test_det_mod_with_a_composite_modulus(case):
    # a pivot that is a non-unit splits M; the entries come signed as
    # drawn, and reduced
    qs, a = case
    m = math.prod(qs)
    expected = int(sympy.Matrix(a).det()) % m if a else 1
    reduced = [[v % m for v in row] for row in a]
    assert _det_mod(a, m) == _det_mod(reduced, m) == expected
    assert reduced == [[v % m for v in row] for row in a]  # the rows are not changed


@given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=40))
def test_pack_round_trip(slots):
    x = _pack(slots)
    assert x == sum(v << (64 * i) for i, v in enumerate(slots))
    assert _unpack(x, len(slots)) == slots


def _spy(monkeypatch, name):
    """Record the arguments and the result of every call to one of adjacency's functions."""
    calls = []
    inner = getattr(adjacency, name)

    def spy(*args):
        result = inner(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(adjacency, name, spy)
    return calls


def _schur(a):
    return _independent_schur(a)


@pytest.mark.parametrize(
    "a",
    [
        [[3]],
        # a star centred on the removed vertex: the minor is diagonal
        [[2, 0, 0], [0, 5, 0], [0, 0, 1]],
        # the 1 x 1 minor of the register 111
        _minor(FactoredLfsr.from_strings("111").graph(), False),
    ],
)
def test_independent_set_takes_the_whole_minor(a, monkeypatch):
    calls = _spy(monkeypatch, "_spd_det_mod")
    assert _schur(a)[2] == []
    assert _det(a) == bareiss_det(a) == math.prod(a[i][i] for i in range(len(a)))
    assert {len(rows) for (rows, _), _ in calls} == {0}


@pytest.mark.parametrize(
    "a",
    [
        [[0]],
        [[0, 0], [0, 5]],
        [[2, -1, 0], [-1, 2, 0], [0, 0, 0]],
        [[4, 0, -2], [0, 0, 0], [-2, 0, 1]],
    ],
)
def test_zero_diagonal_gives_zero(a):
    assert _det(a) == bareiss_det(a) == 0


def test_prime_dividing_the_lcm_is_skipped(monkeypatch):
    # I = {0} with d_0 = p1, the first prime listed for 3 rows, so lam = p1
    p1, p2 = itertools.islice(_listed_primes(3), 2)
    a = [[p1, -1, -1], [-1, 3, -1], [-1, -1, 3]]
    lam, dprod, upper = _schur(a)
    assert (lam, dprod, len(upper)) == (p1, p1, 2)
    assert max(abs(v) for row in upper for v in row) >= p1
    calls = _spy(monkeypatch, "_spd_det_mod")
    assert _det(a) == bareiss_det(a) == _det_fraction(a)
    assert [p for (_, p), _ in calls][:1] == [p2]


def test_unlucky_prime_is_skipped_through_spd_det(monkeypatch):
    # I = {0, 2} with unit diagonal leaves lam S = [[p1, -1], [-1, 2]]:
    # its first leading minor is p1, so p1 vanishes at pivot 0 and is
    # skipped, and p1 <= p1 (the block's diagonal) proves nothing
    p1 = next(_listed_primes(4))
    a = [[1, -1, 0, 0], [-1, p1 + 1, 0, -1], [0, 0, 1, -1], [0, -1, -1, 3]]
    assert _schur(a) == (1, 1, [[p1, -1], [2]])
    calls = _spy(monkeypatch, "_spd_det_mod")
    assert _det(a) == bareiss_det(a) == 2 * p1 - 1
    assert [(p, k) for (_, p), (k, _) in calls][0] == (p1, 0)
    assert all(k == 2 for _, (k, _) in calls[1:]) and len(calls) > 1


@pytest.mark.parametrize("e, past_three", [(10, False), (30, False), (60, False), (100, True), (300, True)])
def test_scaled_schur_entries_past_the_modulus(e, past_three, monkeypatch):
    # a weighted path: I = {0, 2, 4}, R = {1, 3}; the entries of lam S
    # grow with e, from below p1 (one base-2^29 digit) to two, three, four
    # and eleven digits, all packed by one expression per prime
    weights = [3, (1 << e) + 1, 5, (1 << e) - 1, 7]
    a = _weighted_path_minor(weights)
    lam, _, upper = _schur(a)
    assert lam == math.lcm(3 + weights[1], 5 + weights[3], 7)
    top = max(abs(v) for row in upper for v in row)
    p1 = next(_listed_primes(5))
    assert (top >= p1) == (e >= 30)
    with pytest.MonkeyPatch.context() as mp:
        split = _spy(mp, "_digit_rows")
        calls = _spy(mp, "_spd_det_mod")
        assert _det(a) == math.prod(weights) == bareiss_det(a)
    ((shift, ndigits),) = {args[1:] for args, _ in split}
    assert ndigits == -(-top.bit_length() // shift) and (ndigits > 3) == past_three
    assert ndigits >= 10 or e < 300
    # past three digits the primes stay at the matrix's own limit, and at
    # eleven the width shrinks instead, from 2^29 to 2^28, until the
    # offset fits the slots at R's slot limit
    assert calls[0][0][1] == p1
    assert shift == (28 if e == 300 else 29)
    assert ndigits << shift <= 2 * _slot_prime_limit(2)
    # and with primes 3, 5, 7, ..., all below 2^shift
    assert _det(a, filter(sympy.isprime, itertools.count(3))) == math.prod(weights)


@st.composite
def gram_matrices(draw):
    # B^T B is positive semidefinite for any integer B; small entries give
    # zero rows, singular matrices and zero leading minors of lam S
    m = draw(st.integers(1, 7))
    k = draw(st.integers(1, 7))
    b = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m, max_size=m), min_size=k, max_size=k))
    return [[sum(row[i] * row[j] for row in b) for j in range(m)] for i in range(m)]


@settings(max_examples=80, deadline=None)
@given(gram_matrices())
def test_drawn_semidefinite_matrices_match_bareiss(a):
    assert _det(a) == bareiss_det(a)


@settings(max_examples=80, deadline=None)
@given(gram_matrices())
def test_drawn_semidefinite_matrices_match_bareiss_with_small_primes(a):
    # primes 3, 5, 7, ...: about half of them meet a vanishing pivot, so
    # the skip rule carries the result
    assert _det(a, filter(sympy.isprime, itertools.count(3))) == bareiss_det(a)


def test_dense_count_splits_into_one_block_per_eigenvalue_order(monkeypatch):
    # Φ has order 12 on dense-count, with orbits of sizes 1 (three beside
    # vertex 0), 2 (two), 6 (two) and 12 (eighteen); each order d takes
    # the orbits whose size it divides, and the Z_d multiply to the count
    g = FactoredLfsr.from_strings(DENSE_FACTORS).graph()
    sizes, seen = [], {0}
    for v in range(1, g.num_vertices):
        if v not in seen:
            sizes.append(0)
            while v not in seen:
                seen.add(v)
                v = g._phi[v]
                sizes[-1] += 1
    assert sorted(sizes) == [1] * 3 + [2] * 2 + [6] * 2 + [12] * 18
    for condensed, expected in [(False, DENSE_ZETA_G), (True, DENSE_ZETA_GHAT)]:
        real = _spy(monkeypatch, "_spd_det")
        unity = _spy(monkeypatch, "_unity_det")
        assert best_count(g, condensed) == expected
        # Z_1 and Z_2 are det(S M_λ) / det S, S the sizes of the orbits d divides
        blocks = [
            (d, len(args[0]), det // math.prod(s for s in sizes if s % d == 0))
            for d, (args, det) in zip((1, 2), real, strict=True)
        ]
        blocks += [(args[2], len(args[1]), z) for args, z in unity]
        assert [(d, m) for d, m, _ in blocks] == [(1, 25), (2, 22), (3, 20), (4, 18), (6, 20), (12, 18)]
        assert math.prod(z for _, _, z in blocks) == expected


def test_cofactor_peak_memory(monkeypatch):
    # psi = 74: the minor's rows are parallel int lists, and lam S's dense
    # rows are dropped as they are split into digit rows, so the peak is
    # about 120 KiB for either count; a tuple per nonzero and lam S kept
    # through the prime loop took about 260 KiB
    g = FactoredLfsr.from_strings("1001001,1010111").graph()
    assert g.num_vertices == 74 and g.is_connected()  # the neighbour table is built
    for condensed in (False, True):
        tracemalloc.start()
        try:
            best_count(g, condensed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 192 * 1024, (condensed, peak)


def _fresh_dense_graph():
    # a graph of its own: the graph keeps the primes its counts find
    return FactoredLfsr.from_strings(DENSE_FACTORS).graph()


def test_dense_count_eliminates_each_lambda_once(monkeypatch):
    # one elimination per λ modulo the product of the block's primes: d = 3,
    # 4 and 6 have one λ up to inversion, d = 12 two (λ = w and w^5)
    g = _fresh_dense_graph()
    calls = _spy(monkeypatch, "_det_mod")
    assert best_count(g) == DENSE_ZETA_G
    assert [len(args[0]) for args, _ in calls] == [20, 18, 20, 18, 18]
    assert all(det is not None and args[1] >> 62 for args, det in calls)


def test_prime_searches_once_per_graph_and_count(monkeypatch):
    # every block of G and Ĝ reads one list of primes p = 1 (mod 12), kept
    # on the graph and searched once, down from the slot limit of the
    # λ = 1 block of 25 rows
    g = _fresh_dense_graph()
    top = _slot_prime_limit(25)
    search, is_prime = adjacency._unity_primes, adjacency._is_prime
    searches, listed, tested = [], [], []

    def spy_search(*args):
        searches.append(args)
        for p, z in search(*args):
            listed.append(p)
            yield p, z

    def spy_is_prime(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(adjacency, "_unity_primes", spy_search)
    monkeypatch.setattr(adjacency, "_is_prime", spy_is_prime)
    assert best_count(g) == DENSE_ZETA_G
    assert best_count(g, condensed=True) == DENSE_ZETA_GHAT
    assert searches == [(12, top)]
    assert listed and max(listed) <= top
    # and no other search: the numbers tested are that search's candidates,
    # from the top down to the last prime it listed
    assert tested == list(range((top - 1) // 12 * 12 + 1, min(listed) - 1, -12))
    assert not hasattr(adjacency, "_slot_primes") and not hasattr(adjacency, "_real_det")


def _small_unity_primes(k, top):
    """Primes p = 1 (mod k) from 13 up, each with a root of unity of order k; top is not read."""
    for p in itertools.count(k + 1, k):
        if sympy.isprime(p):
            yield p, next(z for z in range(2, p) if sympy.n_order(z, p) == k)


def test_small_primes_split_the_modulus(monkeypatch):
    # with M a product of primes like 13, 37 and 61, some pivot of some
    # M_λ is nonzero but no unit mod M, so _det_mod eliminates the rows
    # left modulo a proper factor of M and its cofactor; the λ = ±1 blocks
    # read the same small primes
    monkeypatch.setattr(adjacency, "_unity_primes", _small_unity_primes)
    assert [p for p, _ in itertools.islice(_small_unity_primes(12, None), 5)] == [13, 37, 61, 73, 97]
    inner, moduli, splits = adjacency._det_mod, [], []

    def spy(rows, m):
        if moduli and moduli[-1] != m:
            assert moduli[-1] % m == 0
            splits.append((moduli[-1], m))
        moduli.append(m)
        try:
            return inner(rows, m)
        finally:
            moduli.pop()

    monkeypatch.setattr(adjacency, "_det_mod", spy)
    g = _fresh_dense_graph()
    assert best_count(g) == DENSE_ZETA_G
    assert best_count(g, condensed=True) == DENSE_ZETA_GHAT
    assert splits and all(1 < m < outer for outer, m in splits)


def test_dense_count_cofactor_peak_memory():
    # rows left unreduced hold entries below m M^2; G searches the graph's
    # primes, Ĝ reuses them.  Measured at about 88 and 51 KiB
    g = _fresh_dense_graph()
    assert g.is_connected()  # the neighbour table is built
    for condensed, limit in [(False, 135), (True, 80)]:
        tracemalloc.start()
        try:
            best_count(g, condensed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 1024, (condensed, peak)


def test_unreduced_rows_stay_below_m_times_the_square_of_the_modulus():
    # 30 rows modulo a 610-bit M: entries held below 30 M^2 peak at about
    # 330 KiB; a pivot row left unreduced as well let them grow by M per
    # step, to about 730 KiB
    m = ((1 << 61) - 1) ** 10
    rng = random.Random(30)
    a = [[rng.randrange(m) for _ in range(30)] for _ in range(30)]
    tracemalloc.start()
    try:
        det = _det_mod(a, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 480 * 1024, peak
    assert det == int(sympy.Matrix(a).det()) % m


def test_running_out_of_primes_raises():
    # lam S = 3 (4 - 1/3) = 11 after the independent set {0}; the bound is 12
    a = [[3, -1], [-1, 4]]
    with pytest.raises(ArithmeticError, match="ran out"):
        _det(a, [5])
    assert _det(a, [5, 7]) == 11
    # and a prime past the slot limit of |R| rows would let slots carry
    with pytest.raises(ValueError, match="slot limit"):
        _det(a, [sympy.nextprime(_slot_prime_limit(1))])
    # one orbit of size 3 joined to itself: M_λ = 5 - λ - λ^2 = 6 for λ of
    # order 3, bounded by 7; 2 and 3 are cube roots of unity mod 7 and 13
    rows = [[(0, 0, 5), (0, 1, -1), (0, 2, -1)]]
    with pytest.raises(ArithmeticError, match="ran out"):
        _unity_det(rows, [0], 3, 3, iter([(7, 2)]))
    assert _unity_det(rows, [0], 3, 3, iter([(7, 2), (13, 3)])) == 36
