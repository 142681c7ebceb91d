"""Spanning trees and the cycle-joining sequence generator.

Fixing a spanning tree of the adjacency graph and flipping the
feedback at the tree's conjugate pairs merges every cycle into one big
cycle of length 2^n: a de Bruijn sequence.  Distinct trees give
distinct sequences, so streaming trees streams sequences.

Trees of the condensed graph are enumerated by a frontier search on an
explicit stack, so a graph of any size nests no Python calls: visit
vertices in ascending order, and for the unvisited neighbors of the
current vertex branch over every subset (ascending bitmask, empty set
first).  Each branch attaches the chosen subset to the tree, so leaves
at psi - 1 edges are exactly the spanning trees, each produced once.
A multigraph tree picks one pair, stored as its state v, from each
bundle of a condensed tree.  The enumeration is lazy because the counts
grow far beyond anything enumerable; callers take what they need.

Uniform random G-trees come from Wilson's loop-erased walk on the
condensed graph, each edge weighted by its multiplicity and the walk
rooted at the vertex of largest weighted degree, followed by one
uniform pick inside each chosen bundle.  A condensed tree comes out in
proportion to its number of expansions and the pick splits that evenly
among them, so the result is uniform over sequences of the class.

A joined sequence is the register's cycles spliced at the tree's
conjugate pairs, so it is emitted as O(psi) slices of the cycle
strings in the register's Lfsr.cycle_table, not by stepping the joined
register bit by bit.  The first join makes the table.  For a
FactoredLfsr's register it holds every cycle from the start, graph
vertex c as cycle c, each the XOR of its components' factor cycles
(cycles.cycle_strings), so no state is stepped; a register given
without factors builds each cycle the first time one of its states is
located.  Either way it keeps its cycles for later joins.  It also keeps the
positions of each conjugate pair after the first join that uses it, as
one int, so a repeat join finds its pairs by dict lookups instead of
walks; that memory is one entry per distinct pair joined, at most
2^(n-1).  The de Bruijn check reads the 2^(n-1) cyclic (n+1)-bit
windows at even positions a byte at a time (lfsr's cyclic_windows),
from the line parsed once into a packed integer.  Each holds the n-bit
windows at its position and the next, so marking each in a table of
2^(n+1) bytes marks all 2^n windows with half as many stores; four
C-level reads of the table fold the marks back to n-bit values, and a
bit count tells whether they cover all of them.
"""

import heapq
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import getitem

from .adjacency import AdjacencyGraph, PairSearch, best_count
from .cycles import CycleSet
from .lfsr import Lfsr, cyclic_windows, state_to_str

__all__ = [
    "spanning_trees",
    "tree_multiplicity",
    "g_trees",
    "random_spanning_tree",
    "greedy_connected_subgraph",
    "DeBruijnSequence",
    "join_cycles",
    "FeedbackFunction",
    "feedback_function",
    "verify_de_bruijn",
]


def spanning_trees(graph: AdjacencyGraph):
    """Yield spanning trees of the condensed graph as edge tuples.

    Complete and duplicate-free, by a frontier search on an explicit
    stack: visit the lowest-index unchecked listed vertex, branch over
    subsets of its unlisted neighbors (ascending bitmask, empty set
    first), and emit whenever psi - 1 edges accumulate.  Two prunes cut
    subtrees that provably contain no spanning tree, without touching the
    yield order: a neighbor whose last unchecked neighbor is the current
    vertex must be taken now, and every component of the unlisted
    vertices must keep a neighbor that is listed and unchecked.  The
    second is kept incrementally.  Each vertex counts its listed
    unchecked neighbors.  A pick can only strand the components of the
    current vertex's unpicked neighbors, so only those are searched, each
    up to its first vertex with a nonzero count.
    """
    if not graph.is_connected():
        raise ValueError("graph is disconnected: no spanning tree exists")
    return _frontier_search(graph.neighbours[0])


def _frontier_search(adj):
    psi = len(adj)
    if psi == 1:
        yield ()
        return
    in_list = bytearray(psi)
    in_list[0] = 1
    checked = bytearray(psi)
    unchecked_nbrs = [len(nbrs) for nbrs in adj]
    live = [0] * psi  # listed unchecked neighbors, read for unlisted vertices
    for u in adj[0]:
        live[u] += 1
    seen = [0] * psi  # the number of the last search that reached a vertex
    searches = 0
    vlist = [0]
    elist = []
    # one frame per checked vertex: [vertex, its unlisted neighbors,
    # forced bits, free bits, next mask index, the neighbors picked now]
    frames = []
    descend = True
    while True:
        if descend:
            vbar = min(v for v in vlist if not checked[v])
            checked[vbar] = 1
            for u in adj[vbar]:
                unchecked_nbrs[u] -= 1
                live[u] -= 1
            frontier = [u for u in adj[vbar] if not in_list[u]]
            forced = 0
            free_bits = []
            for b, u in enumerate(frontier):
                if unchecked_nbrs[u] == 0:
                    forced |= 1 << b  # last chance to attach u; masks without it are dead
                else:
                    free_bits.append(b)
            frame = [vbar, frontier, forced, free_bits, 0, ()]
            frames.append(frame)
        else:
            frame = frames[-1]
        vbar, frontier, forced, free_bits, k, picked = frame
        for u in picked:
            in_list[u] = 0
            for w in adj[u]:
                live[w] -= 1
        if picked:
            del vlist[-len(picked) :], elist[-len(picked) :]
        if k >> len(free_bits):
            frames.pop()
            for u in adj[vbar]:
                unchecked_nbrs[u] += 1
                live[u] += 1
            checked[vbar] = 0
            if not frames:
                return
            descend = False
            continue
        mask = forced
        for pos, b in enumerate(free_bits):
            mask |= (k >> pos & 1) << b
        picked = [u for b, u in enumerate(frontier) if mask >> b & 1]
        frame[4], frame[5] = k + 1, picked
        for u in picked:
            in_list[u] = 1
            vlist.append(u)
            elist.append((vbar, u))
            for w in adj[u]:
                live[w] += 1
        if len(elist) == psi - 1:
            yield tuple(elist)
            descend = False
            continue
        # unlisted vertices remain: prune the child if no listed vertex is
        # unchecked, or if a component of unlisted ones touches none
        descend = len(vlist) > len(frames)
        before = searches
        for b, u in enumerate(frontier):
            if not descend:
                break
            if mask >> b & 1 or seen[u] > before:
                continue  # picked, or in a component already found live
            searches += 1
            seen[u] = searches
            if live[u]:
                continue
            descend = False
            stack = [u]
            while stack and not descend:
                for w in adj[stack.pop()]:
                    if in_list[w] or seen[w] == searches:
                        continue
                    if live[w] or seen[w] > before:
                        descend = True
                        break
                    seen[w] = searches
                    stack.append(w)


def _edge_key(e):
    a, b = e
    return (a, b) if a < b else (b, a)


def tree_multiplicity(graph: AdjacencyGraph, tree) -> int:
    """Number of multigraph trees condensing to this tree (product of multiplicities)."""
    mult = graph.multiplicities
    m = 1
    for e in tree:
        m *= mult[_edge_key(e)]
    return m


def g_trees(graph: AdjacencyGraph, limit: int | None = None, start: int = 0):
    """Stream the multigraph spanning trees in deterministic order, from the start-th.

    Each condensed tree from spanning_trees expands to the product of
    its edges' bundles, counted in mixed radix with the last edge
    fastest.  The first `start` trees are skipped a whole condensed tree
    at a time, by multiplicity, and the count inside the tree that holds
    the start-th one begins at the remainder's digits.  Only the trees
    that are emitted read their bundles' pairs.  Stops after `limit`
    trees when given.  Raises ValueError at once if start is negative or
    the graph is disconnected, and on the first draw if start is at or
    past zeta_G, the number of trees.
    """
    if start < 0:
        raise ValueError("start must be nonnegative")
    # called here, not in the generator, so a disconnected graph raises at once
    stream = _expand(graph, spanning_trees(graph), start)
    if limit is not None:
        stream = itertools.islice(stream, limit)
    return stream


def _expand(graph: AdjacencyGraph, condensed, start: int):
    mult = graph.multiplicities
    for t, tree in enumerate(condensed):
        keys = [_edge_key(e) for e in tree]
        radix = [mult[k] for k in keys]
        total = math.prod(radix)
        if start >= total:
            # a start past the first tree may lie past the last one, where
            # skipping tree by tree would never end; the determinant settles it
            if t == 0 and start >= best_count(graph):
                raise ValueError("tree index is past the last spanning tree")
            start -= total
            continue
        bundles = [graph.edges[k] for k in keys]
        digits = [0] * len(radix)
        for i in reversed(range(len(radix))):
            start, digits[i] = divmod(start, radix[i])
        while True:
            yield tuple(map(getitem, bundles, digits))
            for i in reversed(range(len(radix))):
                digits[i] += 1
                if digits[i] < radix[i]:
                    break
                digits[i] = 0
            else:
                break


def random_spanning_tree(graph: AdjacencyGraph, seed) -> tuple[int, ...]:
    """A uniformly random multigraph spanning tree, by Wilson's algorithm.

    Wilson's loop-erased walk runs on the condensed graph with each
    edge weighted by its multiplicity: from every vertex not yet in the
    tree, walk until the tree is hit, each step to a neighbor with
    probability proportional to the bundle between them, and attach the
    walk's last exit from each vertex it visited.  A condensed tree T
    comes out with probability prod mult(e) / zeta_G; one pair picked
    uniformly inside each bundle then spreads that evenly over T's
    expansions, so every multigraph tree is equally likely.  The walk is
    rooted at the vertex of largest weighted degree (lowest index on
    ties), which walks hit soonest.  A draw indexes a vertex's neighbours
    in ascending order, whatever order the edge keys were inserted in.
    Pairs come in vertex order, root left out.  `seed` may be an int or
    a random.Random to draw from.
    """
    if not graph.is_connected():
        raise ValueError("graph is disconnected: no spanning tree exists")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    draw = rng.random
    nbrs, cum, totals, lasts, root = graph.walk_tables
    psi = graph.num_vertices
    in_tree = bytearray(psi)
    in_tree[root] = 1
    exit_of = [0] * psi  # index into the vertex's tables of its last exit
    for start in range(psi):
        u = start
        while not in_tree[u]:
            # as random.choices does: clamp a float that rounds up to the total
            k = bisect_right(cum[u], draw() * totals[u], 0, lasts[u])
            exit_of[u] = k
            u = nbrs[u][k]
        u = start
        while not in_tree[u]:  # loops erased: follow the last exits
            in_tree[u] = 1
            u = nbrs[u][exit_of[u]]
    # the multiplicity sits at the exit's index in the neighbour table
    mults = graph.neighbours[1]
    edges = graph.edges
    tree = []
    for v in range(psi):
        if v != root:
            k = exit_of[v]
            u = nbrs[v][k]
            pairs = edges[(v, u) if v < u else (u, v)]
            tree.append(pairs[rng.randrange(mults[v][k])])
    return tuple(tree)


def greedy_connected_subgraph(cycles: CycleSet, tables, factors, basis, rep) -> AdjacencyGraph:
    """A spanning tree found by frontier expansion, skipping the full graph.

    Starting from the first cycle, each processed cycle is probed
    against every still-unreached candidate partner (ascending) for a
    single conjugate pair, all through one PairSearch; newly reached
    cycles join the frontier (processed in ascending index order).
    Useful when the complete pair computation is too expensive and any
    one tree suffices.
    ``rep`` is not read; the tables already hold the special state's blocks.
    """
    search = PairSearch(cycles, tables, factors, basis)
    psi = len(cycles)
    reached = bytearray(psi)
    reached[0] = 1
    count = 1
    frontier = [0]  # a heap: the smallest index is processed first
    edges = {}
    while frontier and count < psi:
        cur = heapq.heappop(frontier)
        for j in search.partners[cur]:
            if reached[j]:
                continue
            a, b = (cur, j) if cur < j else (j, cur)
            pair = next(search.pairs(a, b), None)
            if pair is not None:
                edges[(a, b)] = (pair,)
                reached[j] = 1
                count += 1
                heapq.heappush(frontier, j)
    if count < psi:
        missing = [i for i in range(psi) if not reached[i]]
        raise ValueError(f"could not connect all cycles; unreachable: {missing}")
    return AdjacencyGraph(psi, edges)


@dataclass(frozen=True)
class DeBruijnSequence:
    """One generated sequence with the tree and start state that produced it."""

    bits: str
    order: int
    pairs: tuple[int, ...]
    initial_state: int

    def __str__(self):
        return self.bits

    def packed_hex(self) -> str:
        """Hex packing with s_0 as the most significant bit."""
        return f"{int(self.bits, 2):0{len(self.bits) // 4}x}"


def join_cycles(pairs, spec: Lfsr, init: int = 0) -> DeBruijnSequence:
    """Run the joined register for one full period of 2^n bits.

    The feedback is the linear one except on windows whose last n - 1
    bits match the suffix of a tree pair, where it is complemented;
    that swaps the successors inside each conjugate pair and splices
    the cycles along the tree.  Distinct pairs always carry distinct
    suffixes, which the precondition check enforces.

    The output is cut from the register's cycle strings: the run
    follows a cycle up to its next pair state, then continues on the
    cycle of that state's conjugate, one slice per visit.  The pair
    states are found through CycleTable.locate_pairs, which keeps each
    pair's positions for the register's later joins: one int per
    distinct pair, at most 2^(n-1).
    """
    n = spec.n
    if len({v >> 1 for v in pairs}) != len(pairs):
        raise AssertionError("conjugate pairs in a tree must have distinct suffixes")
    table = spec.cycle_table()
    cycles = table.cycles
    # A located end is c << n | k, the state at position k of cycle c.
    # Leaving a pair state lands on the successor of its conjugate.
    low = (1 << n) - 1
    both = (1 << 2 * n) - 1
    jump = {}
    stops = {}
    for p in table.locate_pairs(pairs):
        x, y = p >> 2 * n, p & both
        jump[x] = y
        jump[y] = x
        stops.setdefault(x >> n, []).append(x & low)
        stops.setdefault(y >> n, []).append(y & low)
    for ks in stops.values():
        ks.sort()
    size = 1 << n
    c, k = table.locate(init)
    out = []
    total = 0
    while total < size:
        cyc, ks = cycles[c], stops.get(c)
        if ks is None:
            # no pair state on the start cycle: the run never leaves it
            out.append((cyc[k:] + cyc[:k]) * -(-size // len(cyc)))
            break
        # k is len(cyc) just past a stop that ends the cycle: the slice from
        # it is empty and the first stop comes next
        q = ks[bisect_left(ks, k) % len(ks)]
        seg = cyc[k : q + 1] if k <= q else cyc[k:] + cyc[: q + 1]
        out.append(seg)
        total += len(seg)
        e = jump[c << n | q]
        c, k = e >> n, (e & low) + 1
    return DeBruijnSequence("".join(out)[:size], n, tuple(pairs), init)


@dataclass(frozen=True)
class FeedbackFunction:
    """LFSR taps plus one complementing product term per tree pair.

    Adding, for each suffix w, the product of (x_i + w_i + 1) over
    i = 1..n-1 flips the linear feedback exactly on states whose tail
    matches w.  Stepping with this function reproduces join_cycles
    bit for bit.
    """

    poly: int
    order: int
    suffixes: frozenset[int]

    def value(self, state: int) -> int:
        lin = (state & (self.poly ^ (1 << self.order))).bit_count() & 1
        return lin ^ ((state >> 1) in self.suffixes)

    def step(self, state: int) -> int:
        return (state >> 1) | self.value(state) << (self.order - 1)

    def __str__(self):
        taps = [f"x{i}" for i in range(self.order) if self.poly >> i & 1]
        terms = " + ".join(taps) if taps else "0"
        for w in sorted(self.suffixes):
            bits = state_to_str(w, self.order - 1)
            prods = "*".join(
                f"x{i + 1}" if bits[i] == "1" else f"(x{i + 1}+1)" for i in range(self.order - 1)
            )
            terms += f" + {prods}"
        return terms


def feedback_function(pairs, spec: Lfsr) -> FeedbackFunction:
    """The joined register's feedback in symbolic form."""
    pairs = tuple(pairs)
    suffixes = frozenset(v >> 1 for v in pairs)
    if len(suffixes) != len(pairs):
        raise AssertionError("conjugate pairs in a tree must have distinct suffixes")
    return FeedbackFunction(spec.poly, spec.n, suffixes)


def verify_de_bruijn(seq: str, n: int) -> bool:
    """True iff the cyclic sequence contains every n-bit window exactly once.

    `seq` is a str of 0s and 1s: any other type raises TypeError, and a
    str with another character, or of a length other than 2^n, raises
    ValueError.  The (n+1)-bit cyclic window x_j at position 2j, for
    j < 2^(n-1), holds two n-bit ones: x_j mod 2^n is the window at 2j
    and x_j >> 1 the window at 2j + 1.  lfsr.cyclic_windows gives the
    x_j, and each marks its slot in a table of 2^(n+1) bytes, so 2^n
    windows take 2^(n-1) stores.  The table's two halves give the low
    windows and its even and odd bytes the high ones; ORed as integers
    with one bit per byte, the four hold 2^n set bits iff they leave no
    n-bit value unmarked, which is iff the sequence is de Bruijn.
    """
    if not isinstance(seq, str):
        raise TypeError(f"sequence must be a str, not {type(seq).__name__}")
    if n < 1:
        raise ValueError(f"order {n} is below 1")
    length = len(seq)
    # bit lengths first, so a huge n never builds 1 << n
    if length.bit_length() != n + 1 or length != 1 << n:
        raise ValueError(f"sequence length {length} is not 2^{n}")
    # a non-ASCII character becomes "?", which the binary check rejects
    data = seq.encode("ascii", "replace")
    if data.translate(None, b"01"):
        raise ValueError("sequence must be binary")
    # The mark is the permutation test: there are exactly 2^n windows, all
    # below 2^n, so they cover every n-bit value iff they are distinct.  It
    # holds one byte per slot where a set would hold an int object.
    size = 1 << n
    mark = bytearray(2 * size)
    for v in cyclic_windows(data, n + 1, 2):
        mark[v] = 1
    # the marks are 0 or 1, so ORing the byte strings as ints ORs them bytewise
    view = memoryview(mark)
    covered = int.from_bytes(view[:size], "little") | int.from_bytes(view[size:], "little")
    covered |= int.from_bytes(mark[0::2], "little") | int.from_bytes(mark[1::2], "little")
    # one set bit per byte of `covered` at most, so 2^n of them means all
    return covered.bit_count() == size
