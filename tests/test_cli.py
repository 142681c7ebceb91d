import argparse
import contextlib
import io
import itertools
import json
import random
import sys
import time

import pytest

from cyclejoin.adjacency import AdjacencyGraph
from cyclejoin.cli import build_parser, main
from cyclejoin.joining import verify_de_bruijn
from cyclejoin.lfsr import state_to_str
from cyclejoin.pipeline import FactoredLfsr


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_every_option_has_help_text():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    missing = [
        f"{name} {action.dest}"
        for name, sub in commands.choices.items()
        for action in sub._actions
        if not action.help
    ]
    assert len(commands.choices) == 5
    assert missing == []


def test_count_n7_reference_text(capsys):
    code, out, _ = run(capsys, "count", "--factors", "11,111,11111")
    assert code == 0
    assert "psi       : 16" in out
    assert "12485394432" in out
    assert "1451520" in out
    assert "2^33.5" in out and "2^20.5" in out


def test_count_json_matches_text(capsys):
    code, text, _ = run(capsys, "count", "--factors", "1011,1101")
    code2, js, _ = run(capsys, "count", "--factors", "1011,1101", "--format", "json")
    assert code == code2 == 0
    doc = json.loads(js)
    assert doc["psi"] == 10
    assert doc["zeta_G"] == "393216" and doc["zeta_Ghat"] == "51984"
    # identical numeric content in both renderings
    assert f"psi       : {doc['psi']}" in text
    assert doc["zeta_G"] in text and doc["zeta_Ghat"] in text
    assert f"2^{doc['log2_zeta_G']}" in text and f"2^{doc['log2_zeta_Ghat']}" in text


def test_analyze_n7_reference(capsys):
    code, out, _ = run(capsys, "analyze", "--factors", "11,111,11111", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 7 and doc["psi"] == 16
    assert len(doc["cycles"]) == 16
    assert doc["cycles"][0]["state"] == "0000000"
    assert doc["cycles"][15]["state"] == "0110000"
    assert [doc["cycles"][i]["period"] for i in range(8)] == [1, 3, 5, 5, 5, 15, 15, 15]
    counts = {(a, b): c for a, b, c in doc["pair_counts"]}
    assert counts[(1, 16)] == 1 and counts[(6, 14)] == 4 and len(counts) == 30


def test_analyze_text_contains_table(capsys):
    code, out, _ = run(capsys, "analyze", "--factors", "1011")
    assert code == 0
    assert "V1" in out and "V2" in out and "{V1,V2}: 1" in out


def test_generate_deterministic_and_verifiable(capsys):
    code, out, _ = run(capsys, "generate", "--factors", "11,1101,11001", "--limit", "5")
    assert code == 0
    seqs = out.strip().splitlines()
    assert len(seqs) == 5 and len(set(seqs)) == 5
    code2, out2, _ = run(capsys, "generate", "--factors", "11,1101,11001", "--limit", "5")
    assert out2 == out
    from cyclejoin.joining import verify_de_bruijn

    assert all(verify_de_bruijn(s, 8) for s in seqs)


def test_generate_tree_index_offsets_the_stream(capsys):
    _, out, _ = run(capsys, "generate", "--factors", "11,1101,11001", "--limit", "6")
    _, out2, _ = run(
        capsys, "generate", "--factors", "11,1101,11001", "--limit", "2", "--tree-index", "3"
    )
    assert out2.strip().splitlines() == out.strip().splitlines()[3:5]


def test_generate_reaches_a_large_tree_index_in_one_pass(capsys):
    # tree 10^8 of 12,485,394,432 lies 34,667 condensed trees in;
    # taking the trees before it one at a time ran for hours
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "generate", "--factors", "11,111,11111", "--tree-index", "100000000", "--limit", "2"
    )
    assert code == 0 and time.perf_counter() - start < 30
    lines = out.split()
    assert len(lines) == 2 and lines[0] != lines[1]
    assert all(verify_de_bruijn(line, 7) for line in lines)


def test_generate_at_psi_1264_verifies(capsys):
    # 1264 cycles: the first tree lies about 1264 search levels down
    code, out, _ = run(capsys, "generate", "--factors", "11,111,1111111111111", "--limit", "2")
    assert code == 0
    lines = out.split()
    assert len(lines) == 2 and lines[0] != lines[1]
    assert all(verify_de_bruijn(line, 15) for line in lines)


def test_generate_initial_state_and_hex(capsys):
    _, out, _ = run(
        capsys,
        "generate", "--factors", "11,1101,11001", "--limit", "1", "--initial-state", "10000000",
    )
    seq = out.strip()
    assert seq.startswith("1")
    _, outhex, _ = run(
        capsys,
        "generate", "--factors", "11,1101,11001", "--limit", "1", "--initial-state", "10000000",
        "--hex",
    )
    assert int(outhex.strip(), 16) == int(seq, 2)


def test_initial_state_skips_whitespace(capsys):
    # seven bits once the space is skipped, as parse_state reads them
    argv = ("generate", "--factors", "11,111,11111", "--limit", "1", "--initial-state")
    code, spaced, _ = run(capsys, *argv, "100 0000")
    assert code == 0 and spaced == run(capsys, *argv, "1000000")[1]
    assert spaced.startswith("1000000")


def test_generate_provenance(capsys):
    _, out, _ = run(
        capsys, "generate", "--factors", "11,1101,11001", "--limit", "1", "--provenance"
    )
    lines = out.strip().splitlines()
    assert lines[0].startswith("# tree: ")
    assert len(lines[0].split()[2:]) == 7  # psi - 1 conjugate pairs


def test_generate_partial(capsys):
    code, out, _ = run(capsys, "generate", "--factors", "11,111,11111", "--partial")
    assert code == 0
    from cyclejoin.joining import verify_de_bruijn

    assert verify_de_bruijn(out.strip(), 7)


def test_sample_seeded(capsys):
    code, out, _ = run(
        capsys, "sample", "--factors", "11,1101,11001", "--limit", "3", "--seed", "9"
    )
    assert code == 0
    code2, out2, _ = run(
        capsys, "sample", "--factors", "11,1101,11001", "--limit", "3", "--seed", "9"
    )
    assert out == out2
    _, out3, _ = run(
        capsys, "sample", "--factors", "11,1101,11001", "--limit", "3", "--seed", "10"
    )
    assert out3 != out
    from cyclejoin.joining import verify_de_bruijn

    assert all(verify_de_bruijn(s, 8) for s in out.strip().splitlines())


def test_verify_command(tmp_path, capsys):
    _, out, _ = run(capsys, "generate", "--factors", "1011,1101", "--limit", "3")
    good = tmp_path / "good.txt"
    good.write_text(out)
    code, vout, _ = run(capsys, "verify", str(good))
    assert code == 0 and vout.count(": ok") == 3
    # corrupt one bit
    lines = out.strip().splitlines()
    bad = lines[0][:5] + ("1" if lines[0][5] == "0" else "0") + lines[0][6:]
    badfile = tmp_path / "bad.txt"
    badfile.write_text("\n".join([bad] + lines[1:]) + "\n")
    code, vout, _ = run(capsys, "verify", str(badfile))
    assert code == 1 and "FAIL" in vout
    code, vout, _ = run(capsys, "verify", str(good), "--format", "json")
    doc = json.loads(vout)
    assert doc["all_valid"] is True and len(doc["results"]) == 3


def test_verify_rejects_non_power_of_two(tmp_path, capsys):
    f = tmp_path / "odd.txt"
    f.write_text("0101010\n")
    code, vout, _ = run(capsys, "verify", str(f))
    assert code == 1 and "FAIL" in vout


@pytest.mark.parametrize("text,argv", [("0\n", ()), ("1\n", ())])
def test_verify_reports_order_below_one_as_fail(tmp_path, capsys, text, argv):
    # a line's inferred order is below 1; an --order below 1 is rejected
    # before reading, in the table of bad arguments below
    f = tmp_path / "short.txt"
    f.write_text(text)
    code, vout, err = run(capsys, "verify", str(f), *argv)
    assert code == 1 and "FAIL" in vout and err == ""


def test_verify_huge_order_is_a_failed_line(tmp_path, capsys):
    f = tmp_path / "db.txt"
    f.write_text("00010111\n")
    code, vout, err = run(capsys, "verify", str(f), "--order", str(10**12))
    assert (code, vout, err) == (1, f"sequence 1: order {10**12}: FAIL\n", "")


@pytest.mark.parametrize(
    "factors,msg",
    [
        ("xyz", "cannot parse"),
        ("1111", "reducible"),
        ("11,11", "repeated factor"),
        ("10,111111", "divisible by x"),
        ("1", "constant"),
        ("11", "total degree"),
    ],
)
def test_error_exits(capsys, factors, msg):
    code, _, err = run(capsys, "count", "--factors", factors)
    assert code == 2
    assert msg in err


def test_safety_cap(capsys):
    code, _, err = run(capsys, "count", "--factors", "11,111,11111", "--max-order", "6")
    assert code == 2 and "safety cap" in err
    code, out, _ = run(capsys, "count", "--factors", "11,111,11111", "--max-order", "7")
    assert code == 0


def test_safety_cap_checked_before_building(capsys):
    # degree 25: building the per-factor tables first would take far longer
    start = time.perf_counter()
    code, out, err = run(
        capsys, "count", "--factors", "10000000000000000000001001", "--max-order", "24"
    )
    assert code == 2 and out == ""
    assert "total degree 25 exceeds the safety cap 24" in err
    assert time.perf_counter() - start < 0.5


def test_partial_obeys_the_total_degree_cap(capsys):
    code, out, err = run(
        capsys, "generate", "--factors", "11,111,11111", "--partial", "--max-order", "6"
    )
    assert code == 2 and out == ""
    assert "total degree 7 exceeds the safety cap 6" in err
    code, out, _ = run(
        capsys, "generate", "--factors", "11,111,11111", "--partial", "--max-order", "7"
    )
    assert code == 0 and len(out) == 129


def test_partial_rejects_a_long_line_before_building(capsys, monkeypatch):
    # n = 31 from two factors under the cap: the join would grow a 2^31-bit line
    from cyclejoin import cli

    monkeypatch.setattr(cli, "FactoredLfsr", lambda polys: pytest.fail("built the register"))
    code, out, err = run(
        capsys, "generate", "--partial", "--factors", "1000000000000011,10000000000101101"
    )
    assert code == 2 and out == ""
    assert "total degree 31 exceeds the safety cap 24" in err


def test_pipeline_validation_messages():
    with pytest.raises(ValueError, match="repeated"):
        FactoredLfsr([0b111, 0b111])
    with pytest.raises(ValueError, match="reducible"):
        FactoredLfsr([0b1111])
    with pytest.raises(ValueError, match="divisible by x"):
        FactoredLfsr([0b10, 0b111])
    with pytest.raises(ValueError, match="constant"):
        FactoredLfsr([0b1])
    with pytest.raises(ValueError, match="at least one factor"):
        FactoredLfsr([])


def test_generate_exhausts_stream_at_limit(capsys):
    # a single primitive factor admits exactly one tree and one sequence
    code, out, _ = run(capsys, "generate", "--factors", "1011", "--limit", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 1
    code, _, err = run(capsys, "generate", "--factors", "1011", "--tree-index", "3")
    assert code == 2 and "past the last spanning tree" in err


@pytest.mark.parametrize(
    "factors, index, fmt",
    [
        ("11,111,11111", 12485394432, "text"),  # zeta_G: one past the last tree
        ("11,1011110010111", 10**400, "text"),
        ("11,111,11111", 12485394432, "json"),
        ("11,1011110010111", 10**400, "json"),
    ],
    ids=["n7-zeta_G", "dense-count-10^400", "n7-zeta_G-json", "dense-count-10^400-json"],
)
def test_generate_rejects_a_tree_index_past_the_end_quickly(capsys, factors, index, fmt):
    # skipping condensed trees one at a time ran for over 20 s on the first
    # and never ended on the second
    start = time.perf_counter()
    argv = ("generate", "--factors", factors, "--tree-index", str(index), "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 10
    assert code == 2 and out == ""
    assert "past the last spanning tree" in err


def test_generate_accepts_the_last_tree_index(capsys):
    # 926,016 trees over 15 condensed trees: the last index is still streamed
    argv = ("generate", "--factors", "11,1101,11001", "--limit", "3")
    code, out, _ = run(capsys, *argv, "--tree-index", "926015")
    assert code == 0 and len(out.split()) == 1
    code, _, err = run(capsys, *argv, "--tree-index", "926016")
    assert code == 2 and "past the last spanning tree" in err


def test_generate_runs_one_tree_search(monkeypatch, capsys):
    from cyclejoin import cli, joining

    calls = []
    real = joining.spanning_trees

    def spy(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(joining, "spanning_trees", spy)
    if hasattr(cli, "spanning_trees"):
        monkeypatch.setattr(cli, "spanning_trees", spy)
    argv = ("generate", "--factors", "11,1101,11001", "--tree-index", "5", "--limit", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out.split()) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("factors", ["11,111,11111", "1001001,10000001111"])
def test_pairs_are_found_only_for_emitted_trees(monkeypatch, capsys, factors):
    from cyclejoin import adjacency

    looked_up = []
    real = adjacency.PairSearch.pairs

    def spy(search, i, j):
        looked_up.append((i, j))
        return real(search, i, j)

    monkeypatch.setattr(adjacency.PairSearch, "pairs", spy)
    psi = FactoredLfsr.from_strings(factors).psi
    for argv in (("count",), ("analyze",), ("analyze", "--format", "json")):
        assert run(capsys, *argv, "--factors", factors)[0] == 0
    assert looked_up == []
    code, out, _ = run(capsys, "generate", "--factors", factors, "--limit", "1")
    assert code == 0 and len(out.split()) == 1
    assert 0 < len(looked_up) <= psi - 1


def test_analyze_reports_connectivity(capsys):
    _, out, _ = run(capsys, "analyze", "--factors", "1011,1101", "--format", "json")
    assert json.loads(out)["connected"] is True


def test_partial_caps_total_degree_before_building(capsys):
    # one degree-25 factor: its per-factor tables alone would hold 2^25 entries
    start = time.perf_counter()
    code, out, err = run(
        capsys, "generate", "--factors", "11,10000000000000000000001001", "--partial"
    )
    assert code == 2 and out == ""
    assert "total degree 26 exceeds the safety cap 24" in err and "--max-order" in err
    assert time.perf_counter() - start < 1.0


def test_text_output_streams_each_sequence(monkeypatch):
    from cyclejoin import cli

    buf = io.StringIO()
    lines_before_join = []
    real_join = cli.join_cycles

    def join(tree, lfsr, init):
        lines_before_join.append(buf.getvalue().count("\n"))
        return real_join(tree, lfsr, init)

    monkeypatch.setattr(cli, "join_cycles", join)
    with contextlib.redirect_stdout(buf):
        code = cli.main(["generate", "--factors", "11,1101,11001", "--limit", "3"])
    assert code == 0
    assert lines_before_join == [0, 1, 2]
    assert len(buf.getvalue().splitlines()) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--factors", "11,1101,11001", "--limit", "3"],
        ["generate", "--factors", "11,1101,11001", "--limit", "3", "--hex", "--provenance"],
        ["sample", "--factors", "11,111,11111", "--limit", "3", "--seed", "4", "--provenance"],
    ],
)
def test_json_output_streams_each_sequence(monkeypatch, argv):
    from cyclejoin import cli

    buf = io.StringIO()
    sequences_before_join = []
    joined = []
    real_join = cli.join_cycles

    def shown(s):
        return s.packed_hex() if "--hex" in argv else s.bits

    def join(tree, lfsr, init):
        sequences_before_join.append(sum(shown(s) in buf.getvalue() for s in joined))
        joined.append(real_join(tree, lfsr, init))
        return joined[-1]

    monkeypatch.setattr(cli, "join_cycles", join)
    inst = FactoredLfsr.from_strings(argv[2])
    # the state 13, written with the register's n bits
    argv = [*argv, "--format", "json", "--initial-state", "10110".ljust(inst.n, "0")]
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    assert code == 0
    assert sequences_before_join == [0, 1, 2]
    doc = {"n": inst.n, "psi": inst.psi, "sequences": [shown(s) for s in joined]}
    if "--provenance" in argv:
        doc["trees"] = [
            [[state_to_str(v, inst.n), state_to_str(v ^ 1, inst.n)] for v in s.pairs]
            for s in joined
        ]
    assert buf.getvalue() == json.dumps(doc) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sample_draws_each_tree_just_before_its_join(monkeypatch, fmt):
    from cyclejoin import cli

    buf = io.StringIO()
    joined = []
    sequences_before_draw = []
    real_draw, real_join = cli.random_spanning_tree, cli.join_cycles

    def draw(graph, rng):
        sequences_before_draw.append(sum(s.bits in buf.getvalue() for s in joined))
        return real_draw(graph, rng)

    def join(tree, lfsr, init):
        joined.append(real_join(tree, lfsr, init))
        return joined[-1]

    monkeypatch.setattr(cli, "random_spanning_tree", draw)
    monkeypatch.setattr(cli, "join_cycles", join)
    argv = ["sample", "--factors", "11,111,11111", "--limit", "3", "--seed", "9", "--format", fmt]
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    assert sequences_before_draw == [0, 1, 2]
    # the same trees as drawing all three before the first join
    rng = random.Random(9)
    graph = FactoredLfsr.from_strings("11,111,11111").graph()
    assert [s.pairs for s in joined] == [real_draw(graph, rng) for _ in range(3)]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_generate_takes_each_tree_just_before_its_join(monkeypatch, fmt):
    from cyclejoin import cli

    buf = io.StringIO()
    joined = []
    sequences_before_take = []
    real_g_trees, real_join = cli.g_trees, cli.join_cycles

    def g_trees(*args):
        for tree in real_g_trees(*args):
            sequences_before_take.append(sum(s.bits in buf.getvalue() for s in joined))
            yield tree

    def join(tree, lfsr, init):
        joined.append(real_join(tree, lfsr, init))
        return joined[-1]

    monkeypatch.setattr(cli, "g_trees", g_trees)
    monkeypatch.setattr(cli, "join_cycles", join)
    # trees 502-504 cross from the first condensed tree (504 trees) into the second
    argv = ["generate", "--factors", "11,1101,11001", "--limit", "3", "--tree-index", "502"]
    with contextlib.redirect_stdout(buf):
        assert cli.main([*argv, "--format", fmt]) == 0
    assert sequences_before_take == [0, 1, 2]
    graph = FactoredLfsr.from_strings("11,1101,11001").graph()
    assert [s.pairs for s in joined] == list(itertools.islice(real_g_trees(graph), 502, 505))


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sample_on_disconnected_graph_exits_before_any_output(monkeypatch, capsys, fmt):
    monkeypatch.setattr(FactoredLfsr, "graph", lambda self: AdjacencyGraph(self.psi, {}))
    code, out, err = run(capsys, "sample", "--factors", "11,111,11111", "--format", fmt)
    assert code == 2
    assert out == ""
    assert "disconnected" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("generate", "--initial-state", "01x1"), "cannot parse state"),
        (("generate", "--initial-state", "11111111"), "initial state must have 7 bits"),
        (("generate", "--partial", "--initial-state", "01x1"), "cannot parse state"),
        (("generate", "--partial", "--initial-state", "11111111"), "must have 7 bits"),
        (("sample", "--initial-state", "01x1"), "cannot parse state"),
        (("sample", "--initial-state", "11111111"), "initial state must have 7 bits"),
        (("generate", "--tree-index", "-1"), "--tree-index must be nonnegative"),
        (("generate", "--partial", "--tree-index", "-3"), "--tree-index must be nonnegative"),
        (("generate", "--partial", "--tree-index", "3"), "--tree-index does not apply"),
        (("generate", "--initial-state", ""), "cannot parse state"),
        (("generate", "--partial", "--initial-state", ""), "cannot parse state"),
        (("sample", "--initial-state", ""), "cannot parse state"),
        (("generate", "--initial-state", "1"), "initial state must have 7 bits"),
        (("generate", "--initial-state", "10000000000"), "initial state must have 7 bits"),
        (("generate", "--initial-state", "00000000"), "initial state must have 7 bits"),
        (("generate", "--partial", "--initial-state", "1"), "must have 7 bits"),
        (("sample", "--initial-state", "10000000000"), "initial state must have 7 bits"),
        (("verify", "-", "--order", "0"), "--order must be at least 1"),
        (("verify", "-", "--order", "-1"), "--order must be at least 1"),
    ],
)
def test_bad_arguments_are_rejected_before_the_graph_build(monkeypatch, capsys, argv, message):
    def built(self):
        raise AssertionError("built the graph before checking the arguments")

    class Unread:
        def __iter__(self):
            raise AssertionError("read the input before checking the arguments")

    monkeypatch.setattr(FactoredLfsr, "graph", built)
    monkeypatch.setattr(FactoredLfsr, "greedy_tree", built)
    monkeypatch.setattr(sys, "stdin", Unread())
    factors = () if argv[0] == "verify" else ("--factors", "11,111,11111")
    code, out, err = run(capsys, *argv, *factors)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
