"""Traced replay of `cyclejoin` commands as public library calls.

Each replay makes the same sequence of public calls as the matching
`cli.main` command and writes the same text to its output, so the
benchmark can check that the replay mirrors the command byte for byte.
A span goes around every layer call; spans stay in memory and are
written out when the run ends.  Counters are computed here, from the
calls' public return values, never inside the package.
"""

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from time import perf_counter
from types import SimpleNamespace

from cyclejoin.adjacency import (
    best_count,
    build_graph,
    build_local_tables,
    int_log2,
    represent_special_state,
)
from cyclejoin.cli import DEFAULT_MAX_ORDER
from cyclejoin.cycles import enumerate_cycles, states_per_factor
from cyclejoin.gf2 import degree, format_poly, is_irreducible, parse_poly, poly_mul
from cyclejoin.joining import (
    g_trees,
    greedy_connected_subgraph,
    join_cycles,
    random_spanning_tree,
    verify_de_bruijn,
)
from cyclejoin.lfsr import Lfsr, StateBasis, parse_state


class Tracer:
    """In-memory spans: id, parent id, run id, name, start, end."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    @contextmanager
    def span(self, name: str):
        rec = [len(self.spans), self._stack[-1] if self._stack else None, self.run_id, name,
               perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[5] = perf_counter()
            self._stack.pop()

    def self_times(self, run_ids) -> dict[str, float]:
        """Summed self time per span name over the given runs.

        A span's self time is its duration minus its children's.
        """
        run_ids = set(run_ids)
        own = {}
        for sid, parent, run, name, start, end in self.spans:
            if run not in run_ids:
                continue
            own[sid] = own.get(sid, 0.0) + end - start
            if parent is not None:
                own[parent] = own.get(parent, 0.0) - (end - start)
        out = {}
        for sid, t in own.items():
            name = self.spans[sid][3]
            out[name] = out.get(name, 0.0) + t
        return out

    def records(self):
        keys = ("id", "parent", "run", "name", "start", "end")
        return [dict(zip(keys, rec)) for rec in self.spans]


class CountingRandom(random.Random):
    """random.Random whose choice() counts calls; the draws are unchanged."""

    def __init__(self, seed):
        super().__init__(seed)
        self.choices = 0

    def choice(self, seq):
        self.choices += 1
        return super().choice(seq)


def setup(tr: Tracer, factors: str, max_order: int | None = DEFAULT_MAX_ORDER):
    """FactoredLfsr.from_strings, one public call per layer."""
    with tr.span("pipeline.validate"):
        polys = [parse_poly(t) for t in factors.split(",") if t.strip()]
        if not polys:
            raise ValueError("at least one factor is required")
        for p in polys:
            if degree(p) < 1 or not p & 1 or not is_irreducible(p):
                raise ValueError(f"factor {format_poly(p)} is not a valid factor")
        if len(set(polys)) != len(polys):
            raise ValueError("repeated factor")
        n = sum(degree(p) for p in polys)
        lfsr = Lfsr(reduce(poly_mul, polys, 1))
    fdata = []
    for p in polys:
        with tr.span("cycles.states_per_factor"):
            fdata.append(states_per_factor(p))
    with tr.span("lfsr.StateBasis"):
        basis = StateBasis(polys)
    with tr.span("cycles.enumerate_cycles"):
        cycles = enumerate_cycles(fdata)
    with tr.span("adjacency.represent_special_state"):
        special = represent_special_state(basis, fdata)
    cycles.special_index = cycles.index_of(special.descriptor)
    if max_order is not None and n > max_order:
        raise ValueError(f"total degree {n} exceeds the safety cap {max_order}")
    return SimpleNamespace(
        polys=polys, n=n, lfsr=lfsr, factors=fdata, basis=basis, cycles=cycles, special=special
    )


def tables_of(tr: Tracer, inst):
    with tr.span("adjacency.build_local_tables"):
        return build_local_tables(inst.factors, inst.special)


def graph_of(tr: Tracer, inst, tables):
    with tr.span("adjacency.build_graph"):
        return build_graph(inst.cycles, tables, inst.factors, inst.basis, inst.special)


@dataclass
class Replayed:
    """One replay's exit code, cheap counters, and the objects whose
    counters are computed after the clock stops (all_counters)."""

    code: int = 0
    counters: dict = field(default_factory=dict)
    inst: SimpleNamespace | None = None
    tables: list | None = None
    graph: object = None

    def all_counters(self) -> dict:
        out = dict(self.counters)
        if self.graph is not None:
            out.update(graph_counters(self.inst, self.tables, self.graph))
        elif self.tables is not None:
            out.update(psi=len(self.inst.cycles), local_pairs=local_pair_count(self.inst, self.tables))
        return out


def _emit(tr: Tracer, out, inst, trees, initial_state: str | None) -> dict:
    init = parse_state(initial_state) if initial_state else 0
    if init >> inst.n:
        raise ValueError(f"initial state must have {inst.n} bits")
    seqs = []
    for tree in trees:
        with tr.span("joining.join_cycles"):
            seqs.append(join_cycles(tree, inst.lfsr, init))
    with tr.span("cli.write"):
        for s in seqs:
            print(s.bits, file=out)
    return {"trees_emitted": len(seqs), "bits_emitted": sum(len(s.bits) for s in seqs)}


def replay_count(tr: Tracer, out, factors: str) -> Replayed:
    inst = setup(tr, factors)
    tables = tables_of(tr, inst)
    graph = graph_of(tr, inst, tables)
    with tr.span("adjacency.best_count_G"):
        zg = best_count(graph)
    with tr.span("adjacency.best_count_Ghat"):
        zh = best_count(graph, condensed=True)
    with tr.span("cli.write"):
        print(f"factors   : {', '.join(format_poly(p) for p in inst.polys)}", file=out)
        print(f"n         : {inst.n}", file=out)
        print(f"psi       : {len(inst.cycles)}", file=out)
        print(f"zeta_G    : {zg}  (~2^{int_log2(zg):.1f})", file=out)
        print(f"zeta_Ghat : {zh}  (~2^{int_log2(zh):.1f})", file=out)
    return Replayed(inst=inst, tables=tables, graph=graph)


def replay_generate(tr: Tracer, out, factors: str, limit: int, tree_index: int,
                    initial_state: str | None) -> Replayed:
    inst = setup(tr, factors)
    tables = tables_of(tr, inst)
    graph = graph_of(tr, inst, tables)
    with tr.span("joining.g_trees"):
        trees = list(itertools.islice(g_trees(graph), tree_index, tree_index + limit))
    counters = _emit(tr, out, inst, trees, initial_state)
    return Replayed(counters=counters, inst=inst, tables=tables, graph=graph)


def replay_sample(tr: Tracer, out, factors: str, limit: int, seed: int,
                  initial_state: str | None) -> Replayed:
    inst = setup(tr, factors)
    rng = CountingRandom(seed)
    tables = tables_of(tr, inst)
    graph = graph_of(tr, inst, tables)
    trees = []
    for _ in range(limit):
        with tr.span("joining.random_spanning_tree"):
            trees.append(random_spanning_tree(graph, rng))
    counters = _emit(tr, out, inst, trees, initial_state)
    counters.update(walk_steps=rng.choices, trees_sampled=len(trees))
    return Replayed(counters=counters, inst=inst, tables=tables, graph=graph)


def replay_partial(tr: Tracer, out, factors: str, initial_state: str | None) -> Replayed:
    inst = setup(tr, factors, max_order=None)  # --partial ignores the order cap
    tables = tables_of(tr, inst)
    with tr.span("joining.greedy_connected_subgraph"):
        tree_graph = greedy_connected_subgraph(
            inst.cycles, tables, inst.factors, inst.basis, inst.special
        )
    pairs = tuple(ps[0] for ps in tree_graph.edges.values())
    counters = _emit(tr, out, inst, [pairs], initial_state)
    return Replayed(counters=counters, inst=inst, tables=tables)


def replay_verify(tr: Tracer, out, path: str) -> Replayed:
    """Mirror of `cyclejoin verify PATH` (text output)."""
    with open(path) as fh:
        lines = [l.strip() for l in fh]
    lines = [l for l in lines if l and not l.startswith("#")]
    results = []
    for line in lines:
        n = len(line).bit_length() - 1
        if len(line) != 1 << n or line.strip("01"):
            results.append((n, False))
            continue
        with tr.span("joining.verify_de_bruijn"):
            results.append((n, verify_de_bruijn(line, n)))
    with tr.span("cli.write"):
        for i, (n, ok) in enumerate(results):
            print(f"sequence {i + 1}: order {n}: {'ok' if ok else 'FAIL'}", file=out)
        if not results:
            print("no sequences read", file=out)
    ok = bool(results) and all(v for _, v in results)
    return Replayed(code=0 if ok else 1)


# --- counters from public return values -----------------------------------


def local_pair_count(inst, tables) -> int:
    """Entries over all local pair tables, the zero-cycle rows included."""
    return sum(
        len(tbl.pairs(j, k))
        for tbl, f in zip(tables, inst.factors)
        for j in range(f.t + 1)
        for k in range(f.t + 1)
    )


def candidate_combos(inst, tables) -> int:
    """Local-pair combinations the full pair search walks.

    For each cycle pair, the product of the per-factor table sizes,
    with the same early exits as the package's pair search: a pair with
    the zero cycle is one test against the special state's cycle; a
    factor inactive on both sides, or an empty table, ends the pair.
    """
    descs = inst.cycles.cycles
    total = 0
    for i, c1 in enumerate(descs):
        for c2 in descs[i + 1 :]:
            if not any(c1.flags) or not any(c2.flags):
                total += 1
                continue
            if any(not a and not b for a, b in zip(c1.flags, c2.flags)):
                continue
            prod = 1
            for k, f in enumerate(inst.factors):
                j = c1.indices[k] if c1.flags[k] else f.t
                m = c2.indices[k] if c2.flags[k] else f.t
                prod *= len(tables[k].pairs(j, m))
                if not prod:
                    break
            total += prod
    return total


def graph_counters(inst, tables, graph) -> dict:
    psi = len(inst.cycles)
    kept = sum(len(ps) for ps in graph.edges.values())
    combos = candidate_combos(inst, tables)
    return {
        "psi": psi,
        "local_pairs": local_pair_count(inst, tables),
        "cycle_pairs_probed": psi * (psi - 1) // 2,
        "candidate_combos": combos,
        "pairs_kept": kept,
        "edges": len(graph.edges),
        "kept_per_candidate": kept / combos,
        "laplacian_dim": graph.num_vertices - 1,
    }
