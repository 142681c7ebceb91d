"""One pass over the baseline ladder: per-layer times per instance.

Not a workload and not repeated: a single timed pass over the rows of
the ROADMAP baseline table, the four CLI commands at n=16, and one
`generate --partial` at n=20, kept as a record (perfbench/LADDER.json).
Single runs on a shared machine; treat every figure as +-20 %.
"""

import platform
import random
import sys
from pathlib import Path

import replay
from cyclejoin.adjacency import best_count
from cyclejoin.joining import join_cycles, random_spanning_tree, verify_de_bruijn

ROWS = (
    "1001001,1010111",
    "111,11111,1001001",
    "1111111111111",
    "1001001,10000001111",
    "10011,1000011,100011101",
)
CLI_N16 = "1001001,10000001111"
PARTIAL_N20 = "1001001,100000000101011"


def ladder_row(factors: str) -> dict:
    tr = replay.Tracer()
    with tr.span("setup"):
        inst = replay.setup(tr, factors)
    tables = replay.tables_of(tr, inst)
    graph = replay.graph_of(tr, inst, tables)
    with tr.span("adjacency.best_count_G"):
        best_count(graph)
    with tr.span("joining.random_spanning_tree"):
        tree = random_spanning_tree(graph, random.Random(0))
    with tr.span("joining.join_cycles"):
        seq = join_cycles(tree, inst.lfsr, 0)
    with tr.span("joining.verify_de_bruijn"):
        ok = verify_de_bruijn(seq.bits, inst.n)
    layers = {name: round(t, 6) for name, t in tr.self_times([0]).items()}
    return {"factors": factors, "n": inst.n, "psi": len(inst.cycles),
            "pairs": sum(len(ps) for ps in graph.edges.values()), "verified": ok,
            "self_time_s": layers}


def run(run_cli, out_dir: Path) -> dict:
    """The whole ladder; run_cli(argv, path) times one CLI command."""
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / "ladder.out"
    rows = [ladder_row(f) for f in ROWS]
    cli = []
    for argv in (
        ["count", "--factors", CLI_N16],
        ["generate", "--factors", CLI_N16, "--limit", "100"],
        ["sample", "--factors", CLI_N16, "--limit", "20"],
        ["generate", "--factors", CLI_N16, "--partial"],
    ):
        rec = run_cli(argv, out_path)
        cli.append({"argv": argv, "exit": rec["code"], "wall_s": round(rec["wall"], 6),
                    "first_line_s": round(rec["first_line"], 6), "stdout_bytes": rec["bytes"]})
    tr = replay.Tracer()
    with open(out_path, "w") as out:
        replay.replay_partial(tr, out, PARTIAL_N20, None)
    partial20 = {name: round(t, 6) for name, t in tr.self_times([0]).items()}
    out_path.unlink()
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "rows": rows,
        "cli_n16": cli,
        "partial_n20": {"factors": PARTIAL_N20, "self_time_s": partial20},
    }
