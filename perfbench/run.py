"""The cyclejoin benchmark: one closed-loop client running CLI commands.

Run from the root of a checkout:

  python3 perfbench/run.py --workload dense-count --seed 1 --seconds 60 --trace 0
  python3 perfbench/run.py --smoke    # every workload's mix once on the n=7 reference
  python3 perfbench/run.py --ladder   # one pass over the baseline ladder (not repeated)

A run repeats its workload's command mix until --seconds are spent; a
command starts only when the previous one has returned.  After the
first pass, a command whose last duration would overrun the time is
skipped, and the run ends when no command of the mix fits.  Every
command runs in this process through `cyclejoin.cli.main(argv)`, on a
fresh instance, with stdout written through to a file, so it pays what
a real CLI call pays.  Every output is checked by the independent
oracles in oracle.py.

With --trace 0 the last stdout line holds the end-to-end metrics, their
times scaled to a reference host speed (see _end_to_end_metrics); with
--trace 1 each command is also replayed as traced library calls
(replay.py) and the line holds the per-layer metrics.  A report goes to
stderr and the run's records and spans to perfbench/out/.
"""

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = ("setup_s", "count_s", "partial_s", "verify_s", "mix_s", "peak_rss_mb")

# per-layer time metric -> span names whose self times it sums
LAYER_SPANS = {
    "cycles.states_per_factor_s": ("cycles.states_per_factor",),
    "lfsr.StateBasis_s": ("lfsr.StateBasis",),
    "cycles.enumerate_cycles_s": ("cycles.enumerate_cycles",),
    "adjacency.represent_special_state_s": ("adjacency.represent_special_state",),
    "adjacency.build_local_tables_s": ("adjacency.build_local_tables",),
    "adjacency.build_graph_s": ("adjacency.build_graph",),
    "adjacency.best_count_G_s": ("adjacency.best_count_G",),
    "adjacency.best_count_Ghat_s": ("adjacency.best_count_Ghat",),
    "joining.trees_s": (
        "joining.g_trees",
        "joining.random_spanning_tree",
        "joining.greedy_connected_subgraph",
    ),
    "joining.greedy_s": ("joining.greedy_connected_subgraph",),
    "joining.join_cycles_s": ("joining.join_cycles",),
    "joining.verify_de_bruijn_s": ("joining.verify_de_bruijn",),
}
# counters fixed by the instance, equal for every graph build
GRAPH_COUNTERS = (
    "psi", "local_pairs", "cycle_pairs_probed", "candidate_combos", "pairs_kept", "edges",
    "kept_per_candidate", "laplacian_dim",
)
COUNTER_METRICS = {
    "cycles.psi": "psi",
    "adjacency.local_pairs": "local_pairs",
    "adjacency.cycle_pairs_probed": "cycle_pairs_probed",
    "adjacency.candidate_combos": "candidate_combos",
    "adjacency.pairs_kept": "pairs_kept",
    "adjacency.edges": "edges",
    "adjacency.kept_per_candidate": "kept_per_candidate",
    "adjacency.laplacian_dim": "laplacian_dim",
    "joining.trees_emitted": "trees_emitted",
    "joining.walk_steps": "walk_steps",
    "joining.walk_steps_per_tree": "walk_steps_per_tree",
    "joining.bits_emitted": "bits_emitted",
    "cli.stdout_bytes": "stdout_bytes",
}
UNITS = {"kept_per_candidate": "ratio", "walk_steps_per_tree": "steps/tree", "stdout_bytes": "B",
         "bits_emitted": "bit", "peak_rss_mb": "MB"}


def _load_package():
    if not (SRC / "cyclejoin" / "cli.py").is_file():
        raise SystemExit(f"error: no cyclejoin sources at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


class Sink:
    """stdout stand-in: writes through to a file, counts bytes, stamps the first line."""

    def __init__(self, fh):
        self.fh = fh
        self.nbytes = 0
        self.first_line = None

    def write(self, s):
        if self.first_line is None and "\n" in s:
            self.first_line = perf_counter()
        self.nbytes += len(s)
        return self.fh.write(s)

    def flush(self):
        self.fh.flush()


# Nominal time of one probe_speed() on the machine the bounds were set on.
PROBE_S = 0.03

# 2^18 small ints in a fixed shuffled order: a few MB that probe_speed()
# reads out of cache order, as the graph build's dicts and lists are read.
_SHUFFLED = list(range(1 << 18))
random.Random(0).shuffle(_SHUFFLED)


def probe_work() -> float:
    """Seconds for a fixed pure-Python loop of integer, dict and list work in cache."""
    t0 = perf_counter()
    table, acc, out = {}, 0, []
    for i in range(1500):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
        out.append(acc >> 7 ^ i)
    return perf_counter() - t0


def probe_memory() -> float:
    """Seconds for dict inserts and lookups keyed by a strided walk of _SHUFFLED."""
    t0 = perf_counter()
    table, acc, keys = {}, 0, _SHUFFLED
    for i in range(0, len(keys), 8):
        table[keys[i]] = i
    for i in range(4, len(keys), 8):
        acc += table.get(keys[i], 0)
    return perf_counter() - t0


def probe_speed() -> float:
    """The host's speed at this moment: about 15 ms in cache plus 15 ms out of it.

    The in-cache loop tracks the big-integer Bareiss and the join; the
    out-of-cache pass tracks the graph build, which slows more than the
    loop does when other jobs on the host contend for the caches.
    """
    return sum(probe_work() for _ in range(30)) + probe_memory()


def run_cli(argv, out_path: Path) -> dict:
    """One `cyclejoin` command in this process; times it and keeps its stdout in a file."""
    from cyclejoin.cli import main

    gc.collect()
    err = io.StringIO()
    with open(out_path, "w") as fh, redirect_stderr(err):
        sink = Sink(fh)
        with redirect_stdout(sink):
            t0 = perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = None
                err.write(traceback.format_exc())
            fh.flush()
            t1 = perf_counter()
    first = (sink.first_line or t1) - t0
    return {"code": code, "wall": t1 - t0, "first_line": first, "bytes": sink.nbytes,
            "stderr": err.getvalue()}


def run_replay(tr, cmd, wl, factors, p, argv, out_path: Path) -> tuple[int, float, dict]:
    """The traced replay of one command; returns (exit code, wall time, counters).

    Counters are computed after the clock stops, outside every span.
    """
    import replay

    gc.collect()
    with open(out_path, "w") as out:
        t0 = perf_counter()
        with tr.span(f"cli.{cmd}"):
            if cmd == "count":
                done = replay.replay_count(tr, out, factors)
            elif cmd == "generate":
                done = replay.replay_generate(
                    tr, out, factors, wl.generate_limit, p.tree_index, p.initial_state)
            elif cmd == "sample":
                done = replay.replay_sample(
                    tr, out, factors, wl.sample_limit, p.sample_seed, p.initial_state)
            elif cmd == "partial":
                done = replay.replay_partial(tr, out, factors, p.initial_state)
            else:
                done = replay.replay_verify(tr, out, argv[1])
        out.flush()
        wall = perf_counter() - t0
    return done.code, wall, done.all_counters()


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


class Checker:
    """Checks each command's output with the oracles; identical outputs are checked once.

    Files are read line by line, so checking adds little to the peak
    memory of the process, which is one of the metrics.
    """

    def __init__(self, wl, n, p, golden):
        self.wl, self.n, self.p, self.golden = wl, n, p, golden
        self.passed = set()

    def problems(self, cmd, rec, path: Path, verify_count=None) -> list[str]:
        import oracle

        if rec["code"] != 0:
            return [f"exit code {rec['code']}: {rec['stderr'].strip()[-300:]}"]
        key = (cmd, digest(path))
        if key in self.passed:
            return []
        bad = []
        if cmd == "count":
            got = oracle.parse_count(path.read_text())
            want = {k: int(self.golden[k]) for k in ("psi", "zeta_G", "zeta_Ghat")}
            if got != want:
                bad.append(f"count printed {got}, expected {want}")
        elif cmd == "verify":
            try:
                rows = oracle.parse_verify(path.read_text())
            except ValueError as exc:
                rows = str(exc)
            if rows != [(i + 1, self.n, "ok") for i in range(verify_count)]:
                bad.append("verify did not report every line ok")
        else:
            want = {"generate": self.wl.generate_limit, "sample": self.wl.sample_limit,
                    "partial": 1}[cmd]
            seen = set()
            with open(path) as fh:
                for line in fh:
                    line = line.rstrip("\n")
                    seen.add(hashlib.sha1(line.encode()).digest())
                    if not oracle.is_de_bruijn(line, self.n):
                        bad.append(f"line {len(seen)} is not a de Bruijn sequence")
                    if not line.startswith(self.p.initial_state):
                        bad.append(f"line {len(seen)} does not start with the initial state")
            lines = count_lines(path)
            if lines != want:
                bad.append(f"{lines} lines, expected {want}")
            # sampled trees may repeat, with probability about limit^2 / zeta_G
            if len(seen) != lines and (cmd != "sample" or int(self.golden["zeta_G"]) > 2**64):
                bad.append("emitted lines are not pairwise distinct")
        if not bad:
            self.passed.add(key)
        return bad


def flip_check(source: Path, n, p, workdir: Path) -> tuple[dict, list[str]]:
    """`verify` on the lines with one bit flipped must flag exactly that line."""
    import oracle

    total = count_lines(source)
    idx = p.flip_line % total
    flipped = workdir / "flipped.txt"
    with open(source) as fin, open(flipped, "w") as fout:
        for i, line in enumerate(fin):
            fout.write(oracle.flip_bit(line, p.flip_bit % (1 << n)) if i == idx else line)
    rec = run_cli(["verify", str(flipped)], workdir / "flipped.out")
    want = [(i + 1, n, "FAIL" if i == idx else "ok") for i in range(total)]
    try:
        rows = oracle.parse_verify((workdir / "flipped.out").read_text())
    except ValueError as exc:
        rows = str(exc)
    bad = [] if rec["code"] == 1 and rows == want else [
        f"verify with line {idx + 1} flipped: exit {rec['code']}, output did not flag exactly that line"
    ]
    return rec, bad


def counter_problems(cmd, wl, n, c) -> list[str]:
    """Invariants of one replay's counters."""
    bad = []
    limit = {"generate": wl.generate_limit, "sample": wl.sample_limit, "partial": 1}.get(cmd)
    if limit is not None:
        if c["trees_emitted"] != limit:
            bad.append(f"trees_emitted {c['trees_emitted']} != {limit}")
        if c["bits_emitted"] != limit << n:
            bad.append(f"bits_emitted {c['bits_emitted']} != {limit} * 2^{n}")
    if "pairs_kept" in c and c["candidate_combos"] < c["pairs_kept"]:
        bad.append("candidate_combos < pairs_kept")
    return bad


def run_workload(wl, seed, seconds, trace, factors=None, max_passes=None, golden=None):
    """One run; returns the result dict printed as the last stdout line, plus details."""
    from cyclejoin.pipeline import FactoredLfsr
    from workloads import argv_for, params_for

    factors = factors or wl.factors
    if golden is None:
        golden = json.loads((HERE / "golden.json").read_text())[factors]
    n = golden["n"]
    p = params_for(seed, n)
    steps = [cmd for cmd, reps in wl.mix for _ in range(reps)]
    checker = Checker(wl, n, p, golden)
    tracer = None
    if trace:
        import replay

        tracer = replay.Tracer()
    OUT.mkdir(exist_ok=True)
    records, setup_samples, problems = [], [], []
    attempted = failed = 0
    last_wall = {}
    start = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        files = {}
        pass_idx, flipped, passes = 0, False, []
        while max_passes is None or pass_idx < max_passes:
            skipped = 0
            for k, cmd in enumerate(steps):
                if pass_idx and perf_counter() - start + last_wall[k] > seconds:
                    skipped += 1
                    continue
                out_path = workdir / f"{cmd}.txt"
                argv = argv_for(cmd, wl, factors, p, files.get(wl.verify_source))
                verify_count = None
                if cmd == "verify":
                    verify_count = count_lines(files[wl.verify_source])
                before = 0.0 if trace else probe_speed()
                rec = run_cli(argv, out_path)
                if not trace:
                    rec["probe_s"] = (before + probe_speed()) / 2
                rec.update(pass_=pass_idx, cmd=cmd)
                bad = checker.problems(cmd, rec, out_path, verify_count)
                if cmd != "verify":
                    files[cmd] = workdir / f"{cmd}.src.txt"
                    out_path.replace(files[cmd])
                    out_path = files[cmd]
                if trace:
                    tracer.run_id = len(records)
                    try:
                        code, rwall, counters = run_replay(
                            tracer, cmd, wl, factors, p, argv, workdir / "replay.txt")
                    except Exception:
                        code, rwall, counters = None, 0.0, {}
                        bad.append("replay raised: " + traceback.format_exc()[-300:])
                    if code != rec["code"] or digest(workdir / "replay.txt") != digest(out_path):
                        bad.append("traced replay output differs from the command's")
                    if counters:
                        bad += counter_problems(cmd, wl, n, counters)
                    rec.update(replay_wall=rwall, counters=counters)
                else:
                    for _ in range(3):
                        t0 = perf_counter()
                        FactoredLfsr.from_strings(factors)
                        setup_samples.append((perf_counter() - t0, rec["probe_s"]))
                last_wall[k] = rec["wall"] + rec.get("replay_wall", 0.0)
                attempted += 1
                if bad:
                    failed += 1
                    problems.append(f"{cmd} (pass {pass_idx}): {'; '.join(bad)}")
                rec["ok"] = not bad
                del rec["stderr"]
                records.append(rec)
                if not flipped and cmd == "verify":
                    flipped = True
                    _, bad = flip_check(files[wl.verify_source], n, p, workdir)
                    attempted += 1
                    if bad:
                        failed += 1
                        problems += bad
            if skipped == len(steps):
                break
            if not skipped:
                passes.append(pass_idx)
            pass_idx += 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    details = {"workload": wl.name, "factors": factors, "seed": seed, "trace": trace,
               "complete_passes": len(passes), "failed_frac": failed / attempted,
               "problems": problems, "records": records}
    if trace:
        metrics, extra = _layer_metrics(tracer, records, passes)
        if extra.pop("counter_mismatch"):
            result["correct"] = False
            problems.append("counters differ between passes or graph builds")
        details.update(extra)
        details["spans"] = tracer.records()
    else:
        metrics, extra = _end_to_end_metrics(records, steps, setup_samples)
        details.update(extra)
    result["metrics"] = metrics
    return result, details


def _median_of(records, cmd, key="wall"):
    """Median over the run's invocations of one command."""
    vals = [r[key] for r in records if r["cmd"] == cmd]
    return statistics.median(vals) if vals else None


def _end_to_end_metrics(records, steps, setup_samples):
    """End-to-end times at the reference speed.

    The host is shared and its speed drifts: the same command reads up
    to 2x slower from one second to the next, and whole runs differ by
    up to 1.6x, alike for every command of a run.  probe_speed() is
    timed just before and after every command; a command's time is
    scaled by PROBE_S over the mean of those two probe times, which a
    program change does not move.  Each metric is the median of its
    command's scaled times over the run, and mix_s, the time of one pass
    of the mix, sums those medians over the pass's commands, so every
    invocation counts, not only the complete passes.
    """
    for r in records:
        r["scaled"] = r["wall"] * PROBE_S / r["probe_s"]
    values = {
        "setup_s": statistics.median(t * PROBE_S / probe for t, probe in setup_samples),
        "count_s": _median_of(records, "count", "scaled"),
        "partial_s": _median_of(records, "partial", "scaled"),
        "verify_s": _median_of(records, "verify", "scaled"),
        "mix_s": sum(_median_of(records, cmd, "scaled") for cmd in steps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": values[k], "unit": UNITS.get(k, "s")} for k in END_TO_END}
    extra = {
        "raw_s": {c: _median_of(records, c) for c in ("count", "partial", "verify")},
        "probe_s": statistics.median(r["probe_s"] for r in records),
        "generate_s": _median_of(records, "generate", "scaled"),
        "generate_first_line_s": _median_of(records, "generate", "first_line"),
        "sample_s": _median_of(records, "sample", "scaled"),
        "samples": {c: sum(r["cmd"] == c for r in records) for c in sorted({r["cmd"] for r in records})},
        "setup_samples": len(setup_samples),
    }
    return metrics, extra


def _layer_metrics(tracer, records, passes):
    per_pass = []
    graph_sets, instance_sets = set(), set()
    for i in passes:
        idx = [j for j, r in enumerate(records) if r["pass_"] == i]
        recs = [records[j] for j in idx]
        summed = ("trees_emitted", "bits_emitted", "walk_steps", "trees_sampled")
        c = dict.fromkeys(summed, 0)
        for r in recs:
            rc = r["counters"]
            for key in summed:
                c[key] += rc.get(key, 0)
            if "psi" in rc:
                instance_sets.add((rc["psi"], rc["local_pairs"]))
            if "pairs_kept" in rc:
                graph_sets.add(tuple(rc[k] for k in GRAPH_COUNTERS))
                c.update({k: rc[k] for k in GRAPH_COUNTERS})
        c["stdout_bytes"] = sum(r["bytes"] for r in recs)
        c["walk_steps_per_tree"] = c["walk_steps"] / c["trees_sampled"] if c["trees_sampled"] else 0.0
        overhead = sum(r["replay_wall"] - r["wall"] for r in recs)
        per_pass.append((tracer.self_times(idx), c, overhead, sum(r["wall"] for r in recs)))
    mismatch = (len(graph_sets) > 1 or len(instance_sets) > 1
                or any(pp[1] != per_pass[0][1] for pp in per_pass))
    metrics = {}
    for name, spans in LAYER_SPANS.items():
        vals = [sum(selfs.get(s, 0.0) for s in spans) for selfs, _, _, _ in per_pass]
        metrics[name] = {"value": statistics.median(vals), "unit": "s"}
    counters = per_pass[0][1]
    for name, key in COUNTER_METRICS.items():
        metrics[name] = {"value": counters.get(key, 0), "unit": UNITS.get(key, "count")}
    all_selfs = {}
    for selfs, _, _, _ in per_pass:
        for k, v in selfs.items():
            all_selfs.setdefault(k, []).append(v)
    extra = {
        "counter_mismatch": mismatch,
        "self_time_s": {k: statistics.median(v) for k, v in sorted(all_selfs.items())},
        "trace_overhead_s": statistics.median(pp[2] for pp in per_pass),
        "untraced_pass_s": statistics.median(pp[3] for pp in per_pass),
    }
    return metrics, extra


def _report(details, result):
    lines = [f"# {details['workload']} factors={details['factors']} seed={details['seed']} "
             f"trace={details['trace']} complete_passes={details['complete_passes']}"]
    for k, v in result["metrics"].items():
        lines.append(f"#   {k:40s} {v['value']:.6g} {v['unit']}")
    for k in ("raw_s", "probe_s", "generate_s", "generate_first_line_s", "sample_s",
              "failed_frac", "trace_overhead_s", "untraced_pass_s", "samples"):
        if details.get(k) is not None:
            lines.append(f"#   {k:40s} {details[k]}")
    for k, v in details.get("self_time_s", {}).items():
        lines.append(f"#   self {k:35s} {v:.6g} s")
    for prob in details["problems"]:
        lines.append(f"#   PROBLEM {prob}")
    print("\n".join(lines), file=sys.stderr)


def _save(details):
    OUT.mkdir(exist_ok=True)
    stem = f"{details['workload']}-seed{details['seed']}-trace{details['trace']}"
    spans = details.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1))


def smoke() -> int:
    """Every workload's mix, one pass untraced and one traced, on the n=7 reference."""
    from workloads import SMOKE_FACTORS, WORKLOADS

    golden = json.loads((HERE / "golden.json").read_text())[SMOKE_FACTORS]
    ok = True
    for wl in WORKLOADS.values():
        for trace in (0, 1):
            result, details = run_workload(wl, 0, 0, trace, SMOKE_FACTORS, 1, golden)
            details["workload"] += "-smoke"
            _report(details, result)
            ok = ok and result["correct"]
            print(json.dumps({"workload": wl.name, "trace": trace, **result}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--ladder", action="store_true")
    args = ap.parse_args(argv)
    _load_package()
    if args.smoke:
        return smoke()
    if args.ladder:
        import ladder

        print(json.dumps(ladder.run(run_cli, OUT), indent=1))
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, details = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    _report(details, result)
    _save(details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
