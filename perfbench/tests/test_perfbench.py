"""The benchmark's own tests: run with `python3 -m pytest perfbench/tests -q`.

They run every workload's command mix on the n=7 reference (smoke
instance), check the counters' invariants, and cross-check the
recorded exact counts against an independent brute-force determinant.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import SMOKE_FACTORS, WORKLOADS, params_for  # noqa: E402

from cyclejoin.joining import g_trees, join_cycles  # noqa: E402
from cyclejoin.pipeline import FactoredLfsr  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())


def smoke_run(name, trace, passes=2, seed=3):
    return run.run_workload(
        WORKLOADS[name], seed, 0, trace, SMOKE_FACTORS, passes, GOLDEN[SMOKE_FACTORS]
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_mix_is_correct_and_reports_every_metric(name, trace):
    result, details = smoke_run(name, trace)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] == len(details["records"]) + 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counter_invariants(name):
    wl = WORKLOADS[name]
    result, details = smoke_run(name, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    graph = FactoredLfsr.from_strings(SMOKE_FACTORS).graph()
    psi = graph.num_vertices
    mult = sum(graph.multiplicity(i, j) for i in range(psi) for j in range(i + 1, psi))
    assert m["adjacency.pairs_kept"] == mult
    assert m["adjacency.candidate_combos"] >= m["adjacency.pairs_kept"]
    assert m["cycles.psi"] == psi == GOLDEN[SMOKE_FACTORS]["psi"]
    assert m["adjacency.edges"] == len(graph.edges)
    assert m["adjacency.cycle_pairs_probed"] == psi * (psi - 1) // 2
    assert m["adjacency.laplacian_dim"] == psi - 1
    n = GOLDEN[SMOKE_FACTORS]["n"]
    limits = {"generate": wl.generate_limit, "sample": wl.sample_limit, "partial": 1}
    for rec in details["records"]:
        if rec["cmd"] in limits:
            assert rec["counters"]["trees_emitted"] == limits[rec["cmd"]]
            assert rec["counters"]["bits_emitted"] == limits[rec["cmd"]] << n
    again, _ = smoke_run(name, 1)
    counters = {k for k, v in result["metrics"].items() if not k.endswith("_s")}
    assert {k: result["metrics"][k] for k in counters} == {k: again["metrics"][k] for k in counters}


def test_checker_catches_wrong_output(tmp_path):
    wl = WORKLOADS["stream-n16"]
    n = GOLDEN[SMOKE_FACTORS]["n"]
    p = params_for(0, n)
    checker = run.Checker(wl, n, p, GOLDEN[SMOKE_FACTORS])
    ok_rec = {"code": 0, "stderr": ""}
    out = tmp_path / "out.txt"
    out.write_text(p.initial_state.ljust(1 << n, "0") + "\n")  # right length, not de Bruijn
    assert checker.problems("partial", ok_rec, out)
    out.write_text("psi       : 16\nzeta_G    : 1\nzeta_Ghat : 1451520\n")
    assert checker.problems("count", ok_rec, out)
    assert checker.problems("count", {"code": 2, "stderr": "error: x"}, out)


def test_de_bruijn_oracle():
    assert oracle.is_de_bruijn("0011", 2)
    assert oracle.is_de_bruijn("00010111", 3)
    assert not oracle.is_de_bruijn("0101", 2)
    assert not oracle.is_de_bruijn(oracle.flip_bit("00010111", 4), 3)
    assert not oracle.is_de_bruijn("0012", 2)


def test_flipped_line_is_reported(tmp_path):
    n = GOLDEN[SMOKE_FACTORS]["n"]
    inst = FactoredLfsr.from_strings(SMOKE_FACTORS)
    source = tmp_path / "lines.txt"
    source.write_text("".join(
        join_cycles(t, inst.lfsr, 0).bits + "\n" for t in g_trees(inst.graph(), limit=4)
    ))
    rec, bad = run.flip_check(source, n, params_for(5, n), tmp_path)
    assert rec["code"] == 1 and not bad


@pytest.mark.parametrize("factors", sorted(GOLDEN))
def test_golden_counts_against_brute_force_determinant(factors):
    sympy = pytest.importorskip("sympy")
    primes = [sympy.prevprime(2**31 - 1000 * i) for i in range(4)]
    psi, mods = oracle.tree_counts_mod(factors, primes)
    want = GOLDEN[factors]
    assert psi == want["psi"]
    for p in primes:
        assert mods[p] == (int(want["zeta_G"]) % p, int(want["zeta_Ghat"]) % p)


def test_benchmark_json_matches_workloads():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"]) <= 0.25
    for w in BENCH["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "stream-n16", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
