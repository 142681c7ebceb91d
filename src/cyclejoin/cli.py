"""Command-line front end.

Subcommands:

  analyze   cycle table plus the pair-count matrix
  count     psi, zeta_G, zeta_Ghat (exact decimals, log2 annotations)
  generate  de Bruijn sequences from the first spanning trees in
            deterministic order (or one greedy tree with --partial)
  sample    sequences from uniformly random spanning trees
  verify    check the de Bruijn property of sequences read from a file
            or stdin

Factors are comma-separated coefficient strings, highest degree first
("11,111,11111").  Sequences print one ASCII bit string per line,
s_0 first.  Exact counts print in full decimal because they usually
exceed 64 bits; log2 values are annotations rounded to one decimal.
"""

import argparse
import contextlib
import json
import random
import sys

from .adjacency import best_count, int_log2
from .joining import g_trees, join_cycles, random_spanning_tree, verify_de_bruijn
from .lfsr import parse_state, state_to_str
from .gf2 import degree
from .pipeline import FactoredLfsr, parse_factors

DEFAULT_MAX_ORDER = 24


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclejoin",
        description="de Bruijn sequences by cycle joining from a factored LFSR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format_opt(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="report format (default text)"
        )

    def add_factor_opts(p):
        p.add_argument(
            "--factors",
            required=True,
            help="comma-separated irreducible factors, coefficients highest degree first",
        )
        p.add_argument(
            "--max-order",
            type=int,
            default=DEFAULT_MAX_ORDER,
            help=f"safety cap on the total degree (default {DEFAULT_MAX_ORDER})",
        )
        add_format_opt(p)

    def add_output_opts(p):
        p.add_argument("--limit", type=int, default=100, help="number of sequences (default 100)")
        p.add_argument("--initial-state", help="start state bits, s_0 first (default all zero)")
        p.add_argument("--hex", action="store_true", help="pack output as hex, s_0 at the top bit")
        p.add_argument(
            "--provenance", action="store_true", help="also emit each tree's conjugate pairs"
        )

    p = sub.add_parser("analyze", help="cycle table and pair-count matrix")
    add_factor_opts(p)

    p = sub.add_parser("count", help="exact counts of constructible sequences")
    add_factor_opts(p)

    p = sub.add_parser("generate", help="emit sequences from deterministic trees")
    add_factor_opts(p)
    add_output_opts(p)
    p.add_argument("--tree-index", type=int, default=0, help="start at the k-th tree")
    p.add_argument(
        "--partial",
        action="store_true",
        help="skip the full graph: print one sequence, from one greedy spanning "
        "structure (so no --tree-index)",
    )

    p = sub.add_parser("sample", help="emit sequences from uniformly random trees")
    add_factor_opts(p)
    add_output_opts(p)
    p.add_argument("--seed", type=int, default=0, help="seed of the tree draws (default 0)")

    p = sub.add_parser("verify", help="check the de Bruijn property of input sequences")
    p.add_argument("path", nargs="?", default="-", help="file of bit strings, one per line ('-' = stdin)")
    p.add_argument("--order", type=int, help="expected order n (default: inferred per line)")
    add_format_opt(p)

    return parser


def _instance(args) -> FactoredLfsr:
    polys = parse_factors(args.factors)
    # checked before building: the per-factor tables alone cost 2^{n_i}
    # each, and a sequence is 2^n bits
    n = sum(map(degree, polys))
    if n > args.max_order:
        raise ValueError(
            f"total degree {n} exceeds the safety cap {args.max_order}; raise --max-order"
        )
    return FactoredLfsr(polys)


def _factor_list(inst):
    from .gf2 import format_poly

    return [format_poly(p) for p in inst.factor_polys]


def _cycle_rows(inst):
    rows = []
    for i, c in enumerate(inst.cycles):
        rows.append(
            {
                "index": i + 1,
                "state": state_to_str(inst.representative(i), inst.n),
                "description": c.describe(),
                "period": c.period,
            }
        )
    return rows


def cmd_analyze(args) -> int:
    inst = _instance(args)
    graph = inst.graph()
    rows = _cycle_rows(inst)
    pair_counts = [[a + 1, b + 1, m] for (a, b), m in sorted(graph.multiplicities.items())]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": inst.n,
                    "factors": _factor_list(inst),
                    "psi": inst.psi,
                    "connected": graph.is_connected(),
                    "cycles": rows,
                    "pair_counts": pair_counts,
                },
                indent=2,
            )
        )
        return 0
    print(f"factors : {', '.join(_factor_list(inst))}")
    print(f"n       : {inst.n}")
    print(f"psi     : {inst.psi} cycles")
    print()
    width = max(len(r["description"]) for r in rows)
    print(f"{'idx':>4}  {'state':<{inst.n}}  {'cycle':<{width}}  period")
    for r in rows:
        print(f"V{r['index']:<3}  {r['state']}  {r['description']:<{width}}  {r['period']:>6}")
    print()
    print("conjugate pairs between cycles:")
    for a, b, cnt in pair_counts:
        print(f"  {{V{a},V{b}}}: {cnt}")
    if not graph.is_connected():
        print("warning: adjacency graph is disconnected; no de Bruijn sequence is constructible")
    return 0


def cmd_count(args) -> int:
    inst = _instance(args)
    graph = inst.graph()
    zg = best_count(graph)
    zh = best_count(graph, condensed=True)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "n": inst.n,
                    "factors": _factor_list(inst),
                    "psi": inst.psi,
                    "zeta_G": str(zg),
                    "zeta_Ghat": str(zh),
                    "log2_zeta_G": round(int_log2(zg), 1),
                    "log2_zeta_Ghat": round(int_log2(zh), 1),
                }
            )
        )
        return 0
    print(f"factors   : {', '.join(_factor_list(inst))}")
    print(f"n         : {inst.n}")
    print(f"psi       : {inst.psi}")
    print(f"zeta_G    : {zg}  (~2^{int_log2(zg):.1f})")
    print(f"zeta_Ghat : {zh}  (~2^{int_log2(zh):.1f})")
    return 0


def _initial_state(inst, args) -> int:
    init = 0
    if args.initial_state is not None:
        init = parse_state(args.initial_state)
        # whitespace is skipped, as parse_state skips it
        if len("".join(args.initial_state.split())) != inst.n:
            raise ValueError(f"initial state must have {inst.n} bits")
    return init


def _emit_sequences(inst, trees, init: int, args) -> int:
    if args.format == "json":
        # written piece by piece, each sequence right after its join and the
        # opening with the first, so an error on the first draw prints
        # nothing; the bytes equal json.dumps of the whole document
        out = sys.stdout
        trees_doc = []
        for k, tree in enumerate(trees):
            s = join_cycles(tree, inst.lfsr, init)
            head = ", " if k else f'{{"n": {inst.n}, "psi": {inst.psi}, "sequences": ['
            out.write(head + json.dumps(s.packed_hex() if args.hex else s.bits))
            if args.provenance:
                trees_doc.append(
                    [[state_to_str(v, inst.n), state_to_str(v ^ 1, inst.n)] for v in s.pairs]
                )
        out.write("]")
        if args.provenance:
            out.write(f', "trees": {json.dumps(trees_doc)}')
        out.write("}\n")
        return 0
    # text output streams: each sequence is printed as soon as it is joined
    for tree in trees:
        s = join_cycles(tree, inst.lfsr, init)
        if args.provenance:
            pairs = " ".join(f"{state_to_str(v, inst.n)}/{state_to_str(v ^ 1, inst.n)}" for v in s.pairs)
            print(f"# tree: {pairs}")
        print(s.packed_hex() if args.hex else s.bits)
    return 0


def cmd_generate(args) -> int:
    if args.partial and args.tree_index > 0:
        raise ValueError("--tree-index does not apply to --partial, which prints one sequence")
    inst = _instance(args)
    # every argument is checked before the graph build, which can take minutes
    if args.limit < 1:
        raise ValueError("--limit must be positive")
    if args.tree_index < 0:
        raise ValueError("--tree-index must be nonnegative")
    init = _initial_state(inst, args)
    if args.partial:
        tree_graph = inst.greedy_tree()
        pairs = tuple(ps[0] for ps in tree_graph.edges.values())
        return _emit_sequences(inst, [pairs], init, args)
    return _emit_sequences(inst, g_trees(inst.graph(), args.limit, args.tree_index), init, args)


def cmd_sample(args) -> int:
    inst = _instance(args)
    if args.limit < 1:
        raise ValueError("--limit must be positive")
    init = _initial_state(inst, args)
    rng = random.Random(args.seed)
    graph = inst.graph()
    # each tree is drawn just before its join, so output streams; joins
    # never touch the rng, so the draws do not depend on when they happen
    trees = (random_spanning_tree(graph, rng) for _ in range(args.limit))
    return _emit_sequences(inst, trees, init, args)


def cmd_verify(args) -> int:
    if args.order is not None and args.order < 1:
        raise ValueError("--order must be at least 1")
    # lines stream in, but results print only after the last one: an input
    # that fails to decode exits 2 with nothing on stdout
    results = []
    with contextlib.nullcontext(sys.stdin) if args.path == "-" else open(args.path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            n = args.order if args.order is not None else len(line).bit_length() - 1
            try:
                valid = verify_de_bruijn(line, n)
            except ValueError:
                valid = False
            results.append({"order": n, "valid": valid})
    ok = all(r["valid"] for r in results) and results
    if args.format == "json":
        print(json.dumps({"results": results, "all_valid": bool(ok)}))
    else:
        for i, r in enumerate(results):
            status = "ok" if r["valid"] else "FAIL"
            print(f"sequence {i + 1}: order {r['order']}: {status}")
        if not results:
            print("no sequences read")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "count": cmd_count,
        "generate": cmd_generate,
        "sample": cmd_sample,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
