"""Conjugate pairs, the adjacency graph, and spanning-tree counts.

A conjugate pair is a state v together with v + S, where S is the
special state (1, 0, ..., 0); the two differ only in their first bit,
so a pair is stored as the int v and its partner is v ^ 1.  Cycles
sharing such a pair are adjacent, and the adjacency graph G has the
cycles as vertices with one edge per shared pair.  Joining along a
spanning tree of G produces a de Bruijn sequence, so counting the
sequences constructible from the register is counting spanning trees
(the BEST theorem: any cofactor of the degree-minus-adjacency matrix).
The register has an automorphism Φ = g(T)∘D, D the decimation
s_k -> s_2k (``_frobenius``): it fixes the zero cycle and S, so it maps
conjugate pairs to conjugate pairs and keeps every multiplicity.  For
one factor this is the identity (i, j) = (2i, 2j) of cyclotomic
numbers.  The graph build counts one cycle pair per Φ-orbit and files
that count for the rest of the orbit.

The cofactor is exact, from the minor read off the graph's neighbour
table.  The minor commutes with Φ's permutation of the vertices, so it
splits into one block per eigenvalue λ of that permutation, and the
blocks of the λ of one order d multiply to an integer Z_d.  Each block
is built as dense integer rows, which both engines below take as they
come.  Every block reads one list of primes, found once and
kept on the graph: the odd primes p = 1 (mod k), k the permutation's
order, up to the slot limit of the largest block (λ = 1), each with a
k-th root of unity.  Z_1 and Z_2 (λ = 1, -1) are integer symmetric
determinants: one symmetric elimination per prime, each row packed
into one integer, and CRT up to a bound on the count.  Before the
primes, a maximal independent set of the matrix (a diagonal block) is
eliminated once, exactly over the integers: its Schur complement,
scaled by the lcm of that diagonal, is an integer matrix, and each
prime eliminates only it.  Its dense rows are split once into rows of
signed digits, from which every prime packs its rows by one
expression; many digits are cut narrower, so that the slots cannot
carry at any listed prime.  Each Z_d with d >= 3 is a square, taken by
one elimination per λ modulo the product M of the primes its bound
needs, whose roots give the d-th roots of unity; a pivot that is not a
unit mod M splits M in two, and each part eliminates the rows left.
On dense-count (``11,1011110010111``) the 235 rows of the minor become
blocks of 25, 22, 20, 18, 20 and 18 rows for d = 1, 2, 3, 4, 6 and 12.

The pair search is factored: S decomposes into per-factor blocks
T^{c_i} a_{d_i}, each factor gets a table of local shift pairs whose
component states sum to its block, and a tuple of local pairs lifts to
a real conjugate pair exactly when the per-factor shifts agree modulo
the pairwise gcds of the active periods (the generalized CRT
condition).  Each local table is read off the factor's orbit table:
one pass over the factor's nonzero states, locating each partner.  The
same pass records, per row, the partner rows that are nonempty, so a
cycle's candidate partners (the cycles nonempty against it in every
factor's table) come from the tables alone and no other cycle pair is
probed.

The tuples are found by a descent over the factors, one level each,
instead of by filtering the full product of the tables.  Pairwise
compatibility of the shifts is the same as compatibility of each shift
with the merged congruence of the levels above it, so each side
carries that merged residue down, and level i only visits the local
pairs whose shifts match it modulo gcd(e_i, lcm of the periods above).
The CRT constants of a merge depend on one side and one level only:
they are the cycle's ``cycles.shift_levels``, the shift rule's one
home, so each merge is a few integer operations.
The tables are grouped by those residues once and the groups keep
table order, so the pairs come out in the product's
lexicographic order.  Every partial tuple visited is compatible as far
as it goes, so the work grows with the pairs found rather than with
the product.  The zero cycle takes no special case: its side reads
each table's zero row, which pins the other side to the cycle through
S.  The joint state v is the XOR of one basis image per level (compose
is linear), read from the factor's orbit table and the basis's
per-factor image table.

The descent has one home, ``PairSearch``, addressed by cycle index
and built once per register.  It reads each cycle's table rows, shift
constants and candidate partners once; the graph build's counts, the
bundle lookups and the greedy tree's probes all go through it.

The graph knows its multiplicities first: the build counts the tuples
at the last level of the descent and lists none.  Counting, the tree
stream's skip and the sampler's walk read only those counts; a
bundle's pairs are found by the same search the first time its edge
is read, which only emitted trees do, and kept.
"""

import math
import sys
from array import array
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import accumulate, chain, count, product
from math import gcd, lcm
from operator import mul

from .cycles import (
    CycleDescriptor,
    CycleSet,
    canonical_shifts,
    representative_state,
    shift_levels,
)
from .gf2 import poly_mod, poly_mul, poly_mulmod, prime_factors
from .lfsr import StateBasis, _gf2_invert, _vec_mat

__all__ = [
    "SpecialStateRep",
    "represent_special_state",
    "LocalPairTable",
    "build_local_tables",
    "PairSearch",
    "build_graph",
    "PairBundles",
    "AdjacencyGraph",
    "best_count",
    "int_log2",
]

SPECIAL_STATE = 1  # (1, 0, ..., 0) at any width


@dataclass(frozen=True)
class SpecialStateRep:
    """Per-factor representation of the special state S = (1, 0, ..., 0).

    blocks[i] = T^{shifts[i]} applied to states[cycle_ids[i]] of factor
    i, and composing the blocks through the basis gives back S.  Every
    block is nonzero because f(x) is the minimal polynomial of the
    sequence through S.
    """

    shifts: tuple[int, ...]
    cycle_ids: tuple[int, ...]
    blocks: tuple[int, ...]
    descriptor: CycleDescriptor


def represent_special_state(basis: StateBasis, factors) -> SpecialStateRep:
    """Locate each block of S P^{-1} on its factor's cycles (orbit-table lookups)."""
    factors = list(factors)
    blocks = basis.decompose(SPECIAL_STATE)
    shifts, ids = [], []
    for i, (f, blk) in enumerate(zip(factors, blocks)):
        if blk == 0:
            raise AssertionError(f"special-state block {i} is zero; basis is corrupt")
        j, k = f.locate(blk)
        shifts.append(k)
        ids.append(j)
    orders = [f.order for f in factors]
    flags = (1,) * len(factors)
    desc = CycleDescriptor(
        flags,
        tuple(ids),
        canonical_shifts(flags, shifts, orders),
        lcm(*orders),
    )
    return SpecialStateRep(tuple(shifts), tuple(ids), tuple(blocks), desc)


class LocalPairTable:
    """All local shift pairs of one factor against every cycle index pair.

    ``pairs(j, k)`` lists the (u, w) with T^u states[j] + T^w states[k]
    equal to this factor's block of S, exponents in [0, e).  Index t
    stands for the zero cycle: its side contributes the zero sequence,
    pinning the other side to the block itself.  ``partners[j]`` lists,
    ascending, the k with a nonempty ``pairs(j, k)``.  Tables are built
    eagerly and kept; the footprint is t^2 * e entries at worst, cheap
    at the intended scale.  ``buckets`` groups one table by shift
    residues for the pair search and keeps each grouping it builds.
    """

    def __init__(self, factor, shift: int, cycle_id: int, block: int):
        self.factor = factor
        t, e, where = factor.t, factor.order, factor.positions()
        table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        partners = [[] for _ in range(t + 1)]
        for j in range(t):
            rows = {}  # per partner cycle k, in u order
            for u, x in enumerate(factor.orbit(j)):
                if x != block:  # the block's partner is the zero state
                    k, w = divmod(where[x ^ block], e)
                    rows.setdefault(k, []).append((u, w))
            for k in sorted(rows):
                table[(j, k)] = tuple(rows[k])
                partners[j].append(k)
        # zero-cycle rows: the nonzero side must be the block's own cycle
        table[(t, cycle_id)] = ((0, shift),)
        table[(cycle_id, t)] = ((shift, 0),)
        partners[t].append(cycle_id)
        partners[cycle_id].append(t)  # t is above every nonzero index: still ascending
        self._table = table
        self.partners = partners
        self._buckets = {}

    def pairs(self, j: int, k: int) -> tuple[tuple[int, int], ...]:
        return self._table.get((j, k), ())

    def buckets(self, j: int, k: int, g1: int, g2: int) -> dict:
        """pairs(j, k) grouped by (u mod g1, w mod g2), each group in table order.

        Groupings with a modulus above 1 are kept for reuse; the trivial
        one is a single group and costs nothing to rebuild.
        """
        pairs = self.pairs(j, k)
        if g1 == g2 == 1:
            return {(0, 0): pairs} if pairs else {}
        key = (j, k, g1, g2)
        groups = self._buckets.get(key)
        if groups is None:
            groups = {}
            for u, w in pairs:
                groups.setdefault((u % g1, w % g2), []).append((u, w))
            self._buckets[key] = groups
        return groups


def build_local_tables(factors, rep: SpecialStateRep) -> list[LocalPairTable]:
    return [
        LocalPairTable(f, rep.shifts[i], rep.cycle_ids[i], rep.blocks[i])
        for i, f in enumerate(factors)
    ]


class PairSearch:
    """The conjugate-pair descent between any two cycles, addressed by index.

    Built once per register, it holds per cycle what every descent from
    that cycle reads: its row in each factor's local table (its component
    index, or t if inactive), its per-level constants (l, g, m, q, inv),
    l its shift and the rest its ``cycles.shift_levels``, and
    ``partners[i]``, ascending, the cycles it may share a pair with.  A
    local shift u at level i merges as the congruence u - l, so a side's
    merged residue r becomes r + m * ((u - l - r) // g * inv % q).

    A pair needs a local pair in every factor, so the candidates of a
    cycle are the cycles whose rows are nonempty against its own in
    every factor's table: the product of the tables' partner lists, each
    row standing for every shift of its component cycles.  Cycles with
    one row tuple share one list.  Two sides both inactive in some factor
    have no row there, so such pairs never come up.
    """

    def __init__(self, cycles: CycleSet, tables, factors, basis: StateBasis):
        self._tables = tables
        self._factors = factors
        self._basis = basis
        orders = [f.order for f in factors]
        self._keys = [
            tuple(j if a else tbl.factor.t for a, j, tbl in zip(c.flags, c.indices, tables))
            for c in cycles
        ]
        self._sides = [
            [(l, *lv) for l, lv in zip(c.shifts, shift_levels(c.flags, orders))] for c in cycles
        ]
        members = {}
        for i, key in enumerate(self._keys):
            members.setdefault(key, []).append(i)
        lists = {
            key: sorted(
                chain.from_iterable(
                    members[k]
                    for k in product(*(tbl.partners[j] for tbl, j in zip(tables, key)))
                )
            )
            for key in members
        }
        self.partners = [lists[key] for key in self._keys]

    def _levels(self, i: int, j: int) -> list[tuple]:
        """The descent's levels: residue groups, then (l, g, m, q, inv) per side."""
        return [
            (tbl.buckets(a, b, lv1[1], lv2[1]), *lv1, *lv2)
            for tbl, a, b, lv1, lv2 in zip(
                self._tables, self._keys[i], self._keys[j], self._sides[i], self._sides[j]
            )
        ]

    def count(self, i: int, j: int) -> int:
        """Number of conjugate pairs between cycles i and j, none listed."""
        return _count(self._levels(i, j), 0, 0, 0)

    def pairs(self, i: int, j: int):
        """Yield the conjugate pairs between cycles i and j as their states v on cycle i.

        Every tuple of per-factor local pairs whose shifts satisfy the
        pairwise congruences (modulo gcds of the active periods of each
        side) lifts to exactly one pair.  Level k of the descent keeps
        only the local pairs whose shifts agree, modulo gcd(e_k, lcm of
        the periods above), with the residue each side has merged so
        far, then merges its own congruence and descends.  The pairs come
        out in the lexicographic order of the product of the local
        tables, so the order is reproducible, and only compatible partial
        tuples are ever visited.  With i == j the cycle's self-pairs come
        out, each once per orientation.
        """
        # an inactive v side only meets the zero-cycle row (0, c): u = 0, state 0
        views = [
            (f.orbit(a), self._basis.slot_images(k)) if a < f.t else _ZERO_VIEW
            for k, (a, f) in enumerate(zip(self._keys[i], self._factors))
        ]
        return _descend(self._levels(i, j), views, 0, 0, 0, 0)


def _count(levels, i: int, r1: int, r2: int) -> int:
    """Number of pairs below level i, given each side's merged residue."""
    groups, l1, g1, m1, q1, inv1, l2, g2, m2, q2, inv2 = levels[i]
    opts = groups.get(((r1 + l1) % g1, (r2 + l2) % g2), ())
    i += 1
    if i == len(levels):
        return len(opts)
    total = 0
    if i + 1 < len(levels):
        for u, w in opts:
            total += _count(
                levels,
                i,
                r1 + m1 * ((u - l1 - r1) // g1 * inv1 % q1),
                r2 + m2 * ((w - l2 - r2) // g2 * inv2 % q2),
            )
        return total
    # the next level is the last: count its groups here, one call fewer per tuple
    last, n1, h1, _, _, _, n2, h2, _, _, _ = levels[i]
    for u, w in opts:
        total += len(
            last.get(
                (
                    (r1 + m1 * ((u - l1 - r1) // g1 * inv1 % q1) + n1) % h1,
                    (r2 + m2 * ((w - l2 - r2) // g2 * inv2 % q2) + n2) % h2,
                ),
                (),
            )
        )
    return total


_ZERO_VIEW = ((0,), (0,))


def _descend(levels, views, i, r1, r2, v):
    """Pairs below level i, given each side's merged residue and v so far."""
    groups, l1, g1, m1, q1, inv1, l2, g2, m2, q2, inv2 = levels[i]
    orbit, images = views[i]
    opts = groups.get(((r1 + l1) % g1, (r2 + l2) % g2), ())
    if i + 1 == len(levels):
        for u, _ in opts:
            yield v ^ images[orbit[u]]
        return
    for u, w in opts:
        yield from _descend(
            levels,
            views,
            i + 1,
            r1 + m1 * ((u - l1 - r1) // g1 * inv1 % q1),
            r2 + m2 * ((w - l2 - r2) // g2 * inv2 % q2),
            v ^ images[orbit[u]],
        )


class PairBundles(Mapping):
    """Read-only map from an edge (i, j) to the pairs it bundles, found on demand.

    The multiplicities are known up front, in edge order; a bundle is
    looked up the first time its key is read and kept from then on, so
    whatever reads only multiplicities never runs a pair descent.
    """

    def __init__(self, counts: dict[tuple[int, int], int], search: PairSearch):
        self.counts = counts
        self._search = search
        self._found = None

    def __getitem__(self, key) -> tuple[int, ...]:
        if self._found is None:
            # every key up front: a found bundle then reuses the stored key
            self._found = dict.fromkeys(self.counts)
        pairs = self._found[key]
        if pairs is None:
            pairs = self._found[key] = tuple(self._search.pairs(*key))
        return pairs

    def __contains__(self, key) -> bool:
        return key in self.counts

    def __iter__(self):
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


class _PrimeList:
    """One prime search, begun by its first reader; later readers replay its finds first."""

    def __init__(self):
        self._found = []
        self._search = None

    def read(self, search):
        """Yield the primes found so far, then new ones from ``search()``, which only the first reader calls."""
        if self._search is None:
            self._search = search()
        yield from self._found
        for p in self._search:
            self._found.append(p)
            yield p


@dataclass
class AdjacencyGraph:
    """Multigraph over cycle indices with conjugate-pair edge labels.

    ``edges`` maps (i, j) with i < j to the tuple of shared pairs, each
    stored as its state v on cycle i; the partner v ^ 1 lies on cycle j.
    ``multiplicities`` maps the same keys, in the same order, to the
    bundle sizes; built graphs know them without finding a pair.  The
    condensed view keeps one edge per adjacent pair of vertices
    (multiplicity folded to 1).  The connectivity check, the tree search,
    the sampler and the cofactor read one table, ``neighbours``.
    ``_phi`` is a permutation of the vertices that fixes vertex 0 and
    keeps every multiplicity, which the cofactor splits by; a built graph
    holds the register's Φ there, a hand-built one none.  ``_primes``
    keeps the primes the cofactor has found, p = 1 (mod k) for the order
    k of ``_phi``, with their roots of unity: every block of G and Ĝ
    reads that one list.
    """

    num_vertices: int
    edges: Mapping[tuple[int, int], tuple[int, ...]]
    _phi: tuple[int, ...] | None = field(default=None, init=False, repr=False, compare=False)
    _primes: _PrimeList = field(default_factory=_PrimeList, init=False, repr=False, compare=False)

    @cached_property
    def multiplicities(self) -> dict[tuple[int, int], int]:
        if isinstance(self.edges, PairBundles):
            return self.edges.counts
        return {e: len(ps) for e, ps in self.edges.items()}

    def multiplicity(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        return self.multiplicities.get((i, j), 0)

    @cached_property
    def neighbours(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per vertex, its neighbours ascending and the multiplicity of each edge.

        Built once, from the sorted keys of ``multiplicities``, so the
        order in which the keys were inserted does not leak in.
        """
        nbrs = [[] for _ in range(self.num_vertices)]
        mults = [[] for _ in range(self.num_vertices)]
        for (a, b), mult in sorted(self.multiplicities.items()):
            nbrs[a].append(b)
            nbrs[b].append(a)
            mults[a].append(mult)
            mults[b].append(mult)
        return nbrs, mults

    @cached_property
    def walk_tables(self) -> tuple[list[list[int]], list[list[int]], list[int], list[int], int]:
        """The sampler's tables, built once per graph.

        Per vertex: its neighbours ascending, the cumulative
        multiplicities of its edges, their total (its weighted degree)
        and the index of its last neighbour.  Then the walk's root, the
        vertex of largest weighted degree, lowest index on ties.
        """
        nbrs, mults = self.neighbours
        cum = [list(accumulate(ms)) for ms in mults]
        totals = [c[-1] if c else 0 for c in cum]
        lasts = [len(c) - 1 for c in cum]
        root = max(range(self.num_vertices), key=totals.__getitem__)
        return nbrs, cum, totals, lasts, root

    def is_connected(self) -> bool:
        """Whether every vertex is reachable from vertex 0; searched once per graph."""
        return self._connected

    @cached_property
    def _connected(self) -> bool:
        if self.num_vertices == 0:
            return True
        nbrs = self.neighbours[0]
        seen = {0}
        stack = [0]
        while stack:
            for j in nbrs[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == self.num_vertices


def _frobenius(cycles: CycleSet, factors, basis: StateBasis) -> tuple[int, ...]:
    """The register's automorphism Φ = g(T)∘D as a permutation of cycle indices.

    D is the decimation s_k -> s_2k.  Each factor's roots are closed
    under squaring, so D maps register sequences to register sequences,
    cycles onto cycles (D T^2 = T D, and periods are odd).  Output k of
    the sequence from state v is the parity of v & (x^k mod f), so D(v)
    has bit k the parity of v & (x^2k mod f).  D(S) has every component
    nonzero, so its minimal polynomial is f and T^k D(S), k < n, are
    independent: one c solves sum c_k T^k D(S) = S, and g(x) = sum c_k x^k.
    Then Φ(v) has bit i the parity of v & (g x^i mod f)(x^2), which is
    g^2 x^2i mod f.  Φ is linear, maps cycles onto cycles and fixes S, so
    it maps each conjugate pair (v, v + S) to one, and keeps every
    multiplicity.  π[i] is the cycle of Φ(representative_state(i)),
    located through the basis and the factors' orbit tables; no state
    is stepped.
    """
    n = basis.n
    f = reduce(poly_mul, basis.polys)
    x2 = poly_mod(0b100, f)
    powers = [1]  # x^2m mod f
    for _ in range(2 * n - 2):
        powers.append(poly_mulmod(powers[-1], x2, f))
    # output m of D(S) is output 2m of S, bit 0 of x^2m mod f
    out = sum((x & 1) << m for m, x in enumerate(powers))
    mask = (1 << n) - 1
    g = _gf2_invert([out >> k & mask for k in range(n)], n)[0]
    cols = [poly_mulmod(g, g, f)]
    for _ in range(n - 1):
        cols.append(poly_mulmod(cols[-1], x2, f))
    rows = [sum((c >> j & 1) << i for i, c in enumerate(cols)) for j in range(n)]
    orders = [fac.order for fac in factors]
    index = {(c.flags, c.indices, c.shifts): i for i, c in enumerate(cycles)}
    pi = []
    for c in cycles:
        blocks = basis.decompose(_vec_mat(representative_state(c, basis, factors), rows))
        flags, ids, shifts = [], [], []
        for blk, fac in zip(blocks, factors):
            j, l = fac.locate(blk) if blk else (0, 0)
            flags.append(1 if blk else 0)
            ids.append(j)
            shifts.append(l)
        flags = tuple(flags)
        pi.append(index[flags, tuple(ids), canonical_shifts(flags, shifts, orders)])
    return tuple(pi)


def build_graph(cycles: CycleSet, tables, factors, basis, rep) -> AdjacencyGraph:
    """The full adjacency graph: every cycle pair's multiplicity, pairs on demand.

    One PairSearch serves the count and every later bundle lookup: only
    the candidate partners of each cycle are searched, and the search
    counts the tuples at its last level instead of listing them.  Φ
    (``_frobenius``) keeps every multiplicity, so a cycle pair is counted
    only if no earlier pair of its Φ-orbit was; that count is filed for
    the rest of the orbit, and read when the scan reaches each of them.
    The edges keep the order of a scan over (i, j), i < j; a bundle's
    pairs are found by the same search the first time its edge is read.
    Self-pairs are never looked at (the graph has no loops by
    definition, and they are useless for joining).  The graph keeps Φ's
    permutation for the cofactor.  ``rep`` is not read; the tables
    already hold the special state's blocks.
    """
    search = PairSearch(cycles, tables, factors, basis)
    phi = _frobenius(cycles, factors, basis)
    counts, filed = {}, {}
    for i, partners in enumerate(search.partners):
        for j in partners[bisect_right(partners, i) :]:
            mult = filed.pop((i, j), None)
            if mult is None:
                mult = search.count(i, j)
                a, b = phi[i], phi[j]
                while a != i or b != j:
                    filed[(a, b) if a < b else (b, a)] = mult
                    a, b = phi[a], phi[b]
            if mult:
                counts[(i, j)] = mult
    graph = AdjacencyGraph(len(cycles), PairBundles(counts, search))
    graph._phi = phi
    return graph


def best_count(graph: AdjacencyGraph, condensed: bool = False) -> int:
    """Number of spanning trees: the (0, 0) cofactor of the Laplacian.

    Computed exactly; counts routinely exceed 64 bits.  With
    condensed=True parallel edges collapse first, giving the
    spanning-tree count of the condensed graph.  A disconnected graph
    has none.

    The minor L is never formed whole: vertex 0 is dropped, and the row
    of each orbit's first vertex below is read off the neighbour table
    as a diagonal entry, its weighted degree (for the condensed graph,
    its neighbour count), and one entry per neighbour.  Only the blocks
    built from those rows are dense.  For a connected graph L is
    symmetric positive definite.

    L commutes with the graph's permutation π (``_phi``), which fixes
    vertex 0, so it splits into one block per eigenvalue of π.  Write
    π's orbits on the minor's vertices as r_a, π(r_a), ... with s_a
    members and k for the lcm of the s_a.  For a k-th root of unity λ
    the vectors sum_t λ^t e_π^t(r_a), over the orbits with λ^s_a = 1,
    span an L-invariant subspace on which L acts as
    M_λ[b][a] = sum_t λ^t L[r_b, π^t(r_a)], so det L = prod_λ det M_λ.
    With S = diag(s_a), S M_λ is the Gram matrix of L on those vectors,
    Hermitian positive definite.  The λ of one order d are Galois
    conjugates, so Z_d = prod over them of det M_λ is a positive integer,
    and the count is the product of Z_d over the orders d.  ``_block``
    reads M_λ off the rows for any λ, as dense rows.  Z_1 and Z_2
    (λ = 1, -1) are det(S M_λ) / det S, with S M_λ an integer symmetric
    positive definite matrix: ``_block``'s rows, row b scaled by s_b, go
    to ``_spd_det`` as they are.  Each Z_d with d >= 3 is taken by
    ``_unity_det``: one elimination per λ modulo the product of the
    primes that passes its bound.  Every block reads one list of primes,
    searched once per graph and kept on it (``_primes``): the odd primes
    p = 1 (mod k) up to the slot limit of the λ = 1 block, largest first,
    each with a k-th root of unity.  That block has one row per orbit, so
    no block is larger, and every listed prime suits every packed
    elimination, which ignores the root.  A graph without π has k = 1
    and one block, L itself.
    """
    if not graph.is_connected():
        return 0
    nbrs, mults = graph.neighbours
    psi = graph.num_vertices
    phi = graph._phi or range(psi)
    orbit, pos, reps, sizes = [-1] * psi, [0] * psi, [], []
    for v in range(1, psi):
        if orbit[v] < 0:
            u, t = v, 0
            while orbit[u] < 0:
                orbit[u], pos[u] = len(reps), t
                u, t = phi[u], t + 1
            reps.append(v)
            sizes.append(t)
    # row r_b of L as (a, t, value) for the entry at column π^t(r_a),
    # the diagonal first
    rows = []
    for r in reps:
        ns, ms = nbrs[r], mults[r]
        row = [(orbit[r], 0, len(ns) if condensed else sum(ms))]
        row += [(orbit[u], pos[u], -1 if condensed else -m) for u, m in zip(ns, ms) if u]
        rows.append(row)
    k = lcm(*sizes)
    orders = sorted({d for s in sizes for d in range(1, s + 1) if s % d == 0})
    search = partial(_unity_primes, k, _slot_prime_limit(len(sizes)))
    total = 1
    for d in orders:
        block = [a for a, s in enumerate(sizes) if s % d == 0]
        primes = graph._primes.read(search)
        if d > 2:
            total *= _unity_det(rows, block, d, k, primes)
            continue
        # S M_λ for λ = 1 or -1: row b scaled by s_b
        sm = [[sizes[a] * v for v in row] for a, row in zip(block, _block(rows, block, d, (1, -1)))]
        total *= _spd_det(sm, (p for p, _ in primes)) // math.prod(sizes[a] for a in block)
    return total


def _block(rows, block, d: int, powers) -> list[list[int]]:
    """M_λ off ``best_count``'s rows, for the block of the orbits d divides, as dense rows.

    With λ^r = powers[r], M_λ[b][c] sums v λ^t over the entries (a, t, v)
    of row r_b, a = block[c].  The sums are not reduced, whatever the
    powers are.
    """
    at = {a: i for i, a in enumerate(block)}
    out = []
    for a in block:
        row = [0] * len(block)
        for b, t, v in rows[a]:
            if (c := at.get(b)) is not None:
                row[c] += v * powers[t % d]
        out.append(row)
    return out


def _unity_det(rows, block, d: int, k: int, primes) -> int:
    """Z_d for d >= 3: the product of det M_λ over the λ of order d, the block of the orbits d divides.

    S M_λ and S M_1/λ are each other's transposes, so λ and 1/λ give
    one determinant and Z_d = Y_d^2, with Y_d the product over the
    λ = w^j, 0 < j < d/2, j prime to d, for one λ = w of order d: a
    positive integer (the norm of det M_w from the real subfield).
    Hadamard's inequality for S M_λ gives det M_λ <= prod_b M_λ[b][b],
    and |M_λ[b][b]| is at most L[r_b, r_b] plus the |L[r_b, π^t(r_b)]|,
    t != 0; so Y_d is below that product raised to the number of j.

    ``primes`` yields primes p = 1 (mod k), each with a k-th root of
    unity z; they are taken until their product M passes the bound, and
    running out first raises ArithmeticError.  The roots z^(k/d) mod p
    combine by CRT into one w of order d modulo every p, so each M_λ is
    built once, from the powers of λ mod M, and eliminated once modulo M
    (``_det_mod``), and Y_d is the product of those determinants mod M:
    exact, since Y_d is below the bound and so below M.
    """
    js = [j for j in range(1, (d + 1) // 2) if gcd(j, d) == 1]
    bound = math.prod(sum(abs(v) for b, _, v in rows[a] if b == a) for a in block) ** len(js)
    w, modulus = 0, 1
    for p, z in primes:
        w += modulus * ((pow(z, k // d, p) - w) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus > bound:
            break
    else:
        raise ArithmeticError(f"the primes ran out below the bound of a {len(block)}-row block")
    y = 1
    for j in js:
        lam = pow(w, j, modulus)
        mat = _block(rows, block, d, [pow(lam, r, modulus) for r in range(d)])
        y = y * _det_mod(mat, modulus) % modulus
    return y * y


def _det_mod(rows: list[list[int]], m: int) -> int:
    """Determinant mod m of a square integer matrix, m squarefree.

    Each column pivots on its first row whose entry a is nonzero mod m;
    a column of zeros mod m gives 0.  Should a share a factor g with m,
    the rows left are eliminated modulo g and modulo m/g, coprime since m
    is squarefree, and the two determinants joined by CRT; modulo g the
    column pivots on another row, and modulo m/g a is a unit.  Entries
    need not be reduced.  The pivot row is reduced, and the other rows
    are updated as y + c u with c and u reduced but the sum left
    unreduced, so after at most |rows| updates each entry is below
    |rows| m^2 plus its start.  ``rows`` is not changed.
    """
    det = 1
    while rows:
        i, a = next(((i, a) for i, row in enumerate(rows) if (a := row[0] % m)), (0, 0))
        if not a:
            return 0
        if (g := gcd(a, m)) > 1:
            h = m // g
            x, y = _det_mod(rows, g), _det_mod(rows, h)
            return det * (x + g * ((y - x) * pow(g, -1, h) % h)) % m
        # moving row i to the top passes i rows
        det = (-det if i & 1 else det) * a % m
        neg = m - pow(a, -1, m)
        tail = [u % m for u in rows[i][1:]]
        rows = [
            [y + c * u for y, u in zip(row[1:], tail)] if (c := row[0] * neg % m) else row[1:]
            for row in chain(rows[:i], rows[i + 1 :])
        ]
    return det


def _unity_primes(k: int, top: int):
    """Odd primes p = 1 (mod k) up to top, largest first, each with a k-th root of unity of order k."""
    qs = prime_factors(k)
    step = lcm(2, k)
    p = (top - 1) // step * step + 1
    while p > 1:
        if _is_prime(p):
            for g in count(2):
                z = pow(g, (p - 1) // k, p)
                if all(pow(z, k // q, p) != 1 for q in qs):
                    yield p, z
                    break
        p -= step


# Packed elimination: row i of the upper triangle is one int holding
# columns i..m-1 in 64-bit slots, slot 0 lowest.  A slot starts at most
# at the negative-entry offset of ``_spd_det`` (a residue, not
# necessarily reduced), below 2 L^2 at any prime up to the slot limit
# L (``_digit_width``), and gains less than L^2 from each of at most
# m - 1 pivots before its row is reduced as a pivot, so L^2 (m + 2) <
# 2^64 keeps every slot from carrying into the next.
_SLOT_BITS = 64
_SLOT_MAX = (1 << _SLOT_BITS) - 1
_BIG_ENDIAN = sys.byteorder == "big"


def _slot_prime_limit(m: int) -> int:
    """Largest modulus whose slots cannot overflow in an m x m elimination."""
    return math.isqrt(_SLOT_MAX // (m + 2))


# Miller-Rabin to the bases 2, 7 and 61 is exact below 4,759,123,141,
# which is above every slot limit; trial division by small primes first
_BASES, _LIMIT = (2, 7, 61), 4_759_123_141
_TRIAL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 61)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below 4,759,123,141."""
    if n >= _LIMIT:
        raise ValueError(f"{n} is past the range where the test is exact")
    if n < 2:
        return False
    for q in _TRIAL:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pack(slots: list[int]) -> int:
    if _BIG_ENDIAN:
        slots = slots[::-1]
    return int.from_bytes(array("Q", slots).tobytes(), sys.byteorder)


def _unpack(x: int, width: int) -> list[int]:
    words = memoryview(x.to_bytes(8 * width, sys.byteorder)).cast("Q").tolist()
    return words[::-1] if _BIG_ENDIAN else words


def _digit_rows(row: list[int], shift: int, ndigits: int) -> tuple[list[int], int]:
    """A dense row as ndigits packed rows of signed base-2^shift digits, and a 1 at each negative entry.

    Packing is linear, so the digit rows hold negative slots as plain
    big-int differences; a combination that leaves every slot in
    [0, 2^64) is the packed row of those slot values.
    """
    width = len(row)
    pos = [[0] * width for _ in range(ndigits)]
    neg = [[0] * width for _ in range(ndigits)]
    mask = [0] * width
    low = (1 << shift) - 1
    for d, v in enumerate(row):
        side = pos
        if v < 0:
            side, mask[d], v = neg, 1, -v
        for digits in side:
            digits[d] = v & low
            v >>= shift
    return [_pack(a) - _pack(b) for a, b in zip(pos, neg)], _pack(mask)


def _spd_det_mod(rows: list[int], p: int) -> tuple[int, int]:
    """Packed symmetric elimination mod p: (pivots taken, their product mod p).

    rows[i] holds the upper triangle's row i with every slot a residue
    no larger than ``_spd_det``'s offset; the list is consumed.  Stops at
    the first pivot k that vanishes mod p, a prime dividing the (k + 1)-th
    leading minor.
    """
    m = len(rows)
    det = 1
    for k in range(m):
        slots = [x % p for x in _unpack(rows[k], m - k)]
        rows[k] = None
        akk = slots[0]
        if not akk:
            return k, det
        det = det * akk % p
        neg_inv = p - pow(akk, -1, p)
        piv = _pack(slots)
        # by symmetry the pivot row's slot d is row k + d's column-k entry,
        # so -slot/akk is that row's multiplier; shifting the pivot row by
        # d slots lines it up with row k + d
        for d in range(1, m - k):
            c = slots[d]
            if c:
                rows[k + d] += (c * neg_inv % p) * (piv >> (_SLOT_BITS * d))
    return m, det


def _independent_schur(a: list[list[int]]) -> tuple[int, int, list]:
    """Eliminate a maximal independent set exactly: (lam, its diagonal's product, lam S).

    A comes as in ``_spd_det``; a row's neighbours are its nonzero
    off-diagonal columns.  I is taken greedily in index order, so A_II is
    diagonal with positive entries d_k and every neighbour of k in I is
    in the rest R.  The Schur complement of A_II is
    S = A_RR - sum_k b_k b_k^T / d_k over k in I, with b_k = A_Rk, and
    det A = prod_k d_k * det S.  Scaled by lam = lcm(d_k) it is an
    integer matrix, built and returned as its dense upper triangle: row
    n holds columns n..|R|-1, so row[0] is its diagonal entry.  It is
    positive (semi)definite whenever A is.
    """
    m = len(a)
    indep, covered = [], [False] * m
    for i in range(m):
        if not covered[i]:
            indep.append(i)
            for j, v in enumerate(a[i]):
                if v and j != i:
                    covered[j] = True
    rest = [i for i in range(m) if covered[i]]
    at = {x: n for n, x in enumerate(rest)}
    lam = lcm(*(a[k][k] for k in indep))
    upper = [[lam * a[x][y] for y in rest[n:]] for n, x in enumerate(rest)]
    for k in indep:
        w = lam // a[k][k]
        # at[] keeps k's neighbours in order, so each update lands in the
        # upper triangle
        cols = [(at[x], u) for x, u in enumerate(a[k]) if u and x != k]
        for n, (x, u) in enumerate(cols):
            sx, wu = upper[x], w * u
            for y, v in cols[n:]:
                sx[y - x] -= wu * v
    return lam, math.prod(a[k][k] for k in indep), upper


def _digit_width(bits: int, limit: int) -> tuple[int, int]:
    """(shift, ndigits) to split entries of that many bits into signed base-2^shift digits.

    ndigits 2^shift is at most 2 limit, which keeps ``_spd_det``'s
    offset below 2 limit^2 at every prime up to the limit.  2^shift
    starts at the largest power of two at most limit / 2, which fits at
    least four digits, and narrows only when more do not fit.
    """
    shift = next(s for s in count(limit.bit_length() - 2, -1) if -(-bits // s) << s <= 2 * limit)
    return shift, max(1, -(-bits // shift))


def _spd_det(a: list[list[int]], primes) -> int:
    """Exact determinant of a symmetric positive semidefinite integer matrix, given as dense rows.

    Hadamard's inequality bounds the determinant by the product of the
    diagonal; residues modulo primes whose product exceeds that bound
    are combined by CRT into the unique value below that product.  A
    zero on the diagonal of a semidefinite matrix lies on a zero row, so
    it gives 0 at once.  ``primes`` yields odd primes up to the slot
    limit of the matrix's size; running out before the bound raises
    ArithmeticError.

    A maximal independent set I is eliminated once, exactly over the
    integers (``_independent_schur``), so each prime eliminates only the
    rest R: det A = prod_I d_k * det(lam S) * lam^-|R| modulo any prime
    not dividing lam, and such primes are skipped.  The residues are
    still those of det A, so the bound and the count are unchanged.
    Each dense row of lam S is dropped as it is split into digit rows,
    and the digit rows serve every prime.

    A prime that meets a vanishing pivot k is skipped too, and multiplied
    into vanished[k].  Each prime recorded at k divides the (k + 1)-th
    leading minor of lam S, which is at most the product of that block's
    diagonal (Hadamard), so vanished[k] passes that product only if the
    minor is 0; a semidefinite matrix with a singular principal block is
    singular (x^T A x = 0 forces A x = 0), so then det A = 0.  A singular
    matrix meets a vanishing pivot at every prime, so the loop ends.
    """
    bound = math.prod(row[i] for i, row in enumerate(a))
    if not bound:
        return 0
    lam, dprod, upper = _independent_schur(a)
    r = len(upper)
    s_diag = [row[0] for row in upper]
    if 0 in s_diag:
        return 0
    # lam S's entries as signed base-2^shift digits: c_t = 2^(shift t)
    # mod p recombines them, and the least multiple of p at or above
    # 2^shift sum(c_t), added at each negative entry, leaves every slot a
    # residue in [0, that offset], below 2^shift ndigits (p - 1) + p and
    # so below 2 L^2 for p up to the slot limit L of |R| rows
    limit = _slot_prime_limit(r)
    top = max((abs(v) for row in upper for v in row), default=0)
    shift, ndigits = _digit_width(top.bit_length(), limit)
    split = [_digit_rows(upper.pop(), shift, ndigits) for _ in range(r)][::-1]
    x, modulus, vanished = 0, 1, {}
    for p in primes:
        if p > limit:
            raise ValueError(f"prime {p} is past the slot limit {limit}")
        if lam % p == 0:
            continue
        cs = [pow(2, shift * t, p) for t in range(ndigits)]
        offset = -(-(sum(cs) << shift) // p) * p
        packed = [sum(map(mul, cs, digits)) + offset * mask for digits, mask in split]
        k, det = _spd_det_mod(packed, p)
        if k < r:
            vanished[k] = vanished.get(k, 1) * p
            if vanished[k] > math.prod(s_diag[: k + 1]):
                return 0
            continue
        det = det * dprod * pow(lam, -r, p) % p
        x += modulus * ((det - x) * pow(modulus, -1, p) % p)
        modulus *= p
        if modulus > bound:
            return x
    raise ArithmeticError(f"the primes ran out below the bound of a {len(a)}-row matrix")


def int_log2(n: int) -> float:
    """log2 of a positive int, safe far beyond float range."""
    if n <= 0:
        raise ValueError("log2 of a nonpositive integer")
    bl = n.bit_length()
    if bl <= 53:
        return math.log2(n)
    shift = bl - 53
    return math.log2(n >> shift) + shift
