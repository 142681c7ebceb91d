"""The spliced join and the byte-wide window check against per-bit references.

`reference_join` is the per-bit register run that join_cycles replaced:
it steps all 2^n states, complementing the linear feedback on windows
whose tail is a pair suffix.  join_cycles cuts the same output from the
register's cycle strings, so the two must agree bit for bit on every
pair set and start state, spanning or not.  `reference_windows` checks
the de Bruijn property by slicing out every cyclic window as a string,
and the byte-wide window values are compared with a per-window string
encoding at every order up to 40.
"""

import gc
import random
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclejoin import lfsr
from cyclejoin.cli import main
from cyclejoin.cycles import cycle_strings
from cyclejoin.joining import g_trees, join_cycles, random_spanning_tree, verify_de_bruijn
from cyclejoin.lfsr import Lfsr, state_to_str
from cyclejoin.pipeline import FactoredLfsr
from state_oracle import advance, locate_state, step
from test_oracles import _factor_sets
from test_pair_search import GOLDEN, factor_sets


def reference_join(pairs, spec: Lfsr, init: int = 0) -> str:
    n = spec.n
    suffixes = {v >> 1 for v in pairs}
    out = []
    state = init
    taps, top = spec.taps, n - 1
    for _ in range(1 << n):
        out.append(state & 1)
        b = ((state & taps).bit_count() & 1) ^ ((state >> 1) in suffixes)
        state = (state >> 1) | b << top
    return "".join(map(str, out))


def reference_windows(bits: str, n: int) -> bool:
    ext = bits + bits[: n - 1]
    return len({ext[i : i + n] for i in range(len(bits))}) == len(bits) == 1 << n


def lyndon_de_bruijn(n: int) -> str:
    """The lexicographically least de Bruijn sequence (Fredricksen-Kessler-Maiorana)."""
    a = [0] * (n + 1)
    out = []

    def gen(t, p):
        if t > n:
            if n % p == 0:
                out.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        gen(t + 1, p)
        for j in range(a[t - p] + 1, 2):
            a[t] = j
            gen(t + 1, t)

    gen(1, 1)
    return "".join(map(str, out))


def pairs_for(suffixes):
    return tuple(w << 1 for w in suffixes)


# ---- the spliced join -------------------------------------------------------


@pytest.mark.parametrize("factors", GOLDEN)
def test_join_matches_reference_on_golden_trees(factors):
    inst = FactoredLfsr.from_strings(factors)
    graph = inst.graph()
    rng = random.Random(factors)
    trees = list(g_trees(graph, limit=3)) + [random_spanning_tree(graph, rng) for _ in range(2)]
    for tree in trees:
        init = rng.randrange(1 << inst.n)
        for start in (0, init):
            seq = join_cycles(tree, inst.lfsr, start)
            assert seq.bits == reference_join(tree, inst.lfsr, start)
            assert seq.pairs == tuple(tree) and seq.initial_state == start


@pytest.mark.parametrize("factors", ["1011,1101", "11,111,11111", "11,1101,11001", "10011,11111"])
def test_join_matches_reference_from_every_start_state(factors):
    inst = FactoredLfsr.from_strings(factors)
    assert inst.n <= 8
    tree = random_spanning_tree(inst.graph(), 1)
    for init in range(1 << inst.n):
        assert join_cycles(tree, inst.lfsr, init).bits == reference_join(tree, inst.lfsr, init)


def test_join_without_spanning_pairs_matches_reference():
    inst = FactoredLfsr.from_strings("11,1101,11001")  # 8 cycles, among them the zero cycle
    tree = next(g_trees(inst.graph(), limit=1))
    for pairs in ((), tree[:1], tree[-1:], tree[:3], tree[1:]):
        for init in range(0, 1 << inst.n, 7):
            seq = join_cycles(pairs, inst.lfsr, init)
            assert seq.bits == reference_join(pairs, inst.lfsr, init)
            assert not verify_de_bruijn(seq.bits, inst.n)


def test_join_on_short_cycles_and_the_zero_cycle():
    # x^6 + 1 rotates the state: cycles of length 1, 2, 3 and 6, and the
    # zero state is a cycle of its own
    reg = Lfsr(0b1000001)
    locate_every_state(reg, random.Random(6))
    assert sorted(set(map(len, reg.cycle_table().cycles))) == [1, 2, 3, 6]
    for ws in ((), (0,), (0b10101,), (0, 0b11111), (0b01010, 0b10101, 0b00100)):
        pairs = pairs_for(ws)
        for init in (0, 1, 0b010101, 0b111111, 0b100100):
            assert join_cycles(pairs, reg, init).bits == reference_join(pairs, reg, init)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_join_matches_reference_on_random_registers(data):
    n = data.draw(st.integers(1, 9))
    poly = 1 << n | data.draw(st.integers(0, (1 << n) - 1)) | 1
    reg = Lfsr(poly)
    ws = data.draw(st.sets(st.integers(0, (1 << (n - 1)) - 1), max_size=8))
    init = data.draw(st.integers(0, (1 << n) - 1))
    pairs = pairs_for(sorted(ws))
    assert join_cycles(pairs, reg, init).bits == reference_join(pairs, reg, init)


def locate_every_state(reg: Lfsr, rng: random.Random) -> dict[int, tuple[int, int]]:
    """Locate the register's states in shuffled order, so cycles are found in that order."""
    states = list(range(1 << reg.n))
    rng.shuffle(states)
    table = reg.cycle_table()
    return {s: table.locate(s) for s in states}


def check_located(reg: Lfsr, located) -> None:
    """Each state is the window at its place, each cycle closes, and the cycles tile 2^n."""
    n = reg.n
    table = reg.cycle_table()
    assert sum(map(len, table.cycles)) == 1 << n
    for s, (c, k) in located.items():
        cyc = table.cycles[c]
        ext = cyc * (n // len(cyc) + 2)
        assert ext[k : k + n] == state_to_str(s, n)
        after = (k + 1) % len(cyc)
        assert state_to_str(step(reg, s), n) == ext[after : after + n]
        assert table.locate(s) == (c, k)


def test_cycle_table_locates_every_state():
    for poly in (0b11, 0b1011011, 0b1000001, 0b110100101):
        reg = Lfsr(poly)
        table = reg.cycle_table()
        assert reg.cycle_table() is table
        check_located(reg, locate_every_state(reg, random.Random(poly)))
        for bad in (-1, 1 << reg.n):
            with pytest.raises(ValueError):
                table.locate(bad)


@pytest.mark.parametrize("cap", [1, 3])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_extended_cycles_match_stepping_and_the_reference_join(cap, data):
    # with a cap of 1 or 3, every cycle that outlasts locate's walk (at most
    # 4 states for n <= 10) is extended at C speed
    n = data.draw(st.integers(1, 10))
    poly = 1 << n | data.draw(st.integers(0, (1 << n) - 1)) | 1
    ws = data.draw(st.sets(st.integers(0, (1 << (n - 1)) - 1), max_size=8))
    init = data.draw(st.integers(0, (1 << n) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lfsr, "_STEP_CAP", cap)
        reg = Lfsr(poly)
        pairs = pairs_for(sorted(ws))
        assert join_cycles(pairs, reg, init).bits == reference_join(pairs, reg, init)
        check_located(reg, locate_every_state(reg, random.Random(poly)))


@pytest.mark.parametrize("cap", [1, 3, lfsr._STEP_CAP])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cycle_bits_match_stepping(cap, data):
    # read from one state or from a few already stepped, extended past the cap
    n = data.draw(st.integers(1, 12))
    reg = Lfsr(1 << n | data.draw(st.integers(0, (1 << n) - 1)) | 1)
    states = [data.draw(st.integers(0, (1 << n) - 1))]
    while len(states) < data.draw(st.integers(1, 4)):
        s = step(reg, states[-1])
        if s == states[0]:
            break
        states.append(s)
    period, s = 1, step(reg, states[0])
    while s != states[0]:
        period, s = period + 1, step(reg, s)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lfsr, "_STEP_CAP", cap)
        bits = lfsr.cycle_bits(reg.poly, states)
    assert bits == "".join(map(str, reg.generate(states[0], period)))


@pytest.mark.parametrize("factors", ["1000001010011", "1001001,10000001111"])
def test_long_cycles_locate_every_state(factors):
    # one cycle of length 4095 (a primitive degree-12 register), and the
    # n=16 stream instance, whose longest cycles run past the step cap:
    # the table built from the factors, and one that steps and extends
    inst = FactoredLfsr.from_strings(factors)
    for reg in (inst.lfsr, Lfsr(inst.poly)):
        check_located(reg, locate_every_state(reg, random.Random(factors)))
        lengths = list(map(len, reg.cycle_table().cycles))
        assert max(lengths) > lfsr._STEP_CAP
        if reg.n == 12:
            assert sorted(lengths) == [1, 4095]


def check_factor_built_table(inst: FactoredLfsr, rng: random.Random) -> None:
    """The table built from the factors against stepping and a stepped table's joins.

    Cycle c is graph vertex c, stepped from its representative state;
    every state locates to its own window; and joins of the greedy
    tree, three trees of the stream and three drawn ones, each whole and
    cut short, equal the joins through a table that steps the register.
    """
    table = inst.lfsr.cycle_table()
    stepped = Lfsr(inst.poly)
    assert len(table.cycles) == inst.psi
    for c, desc in enumerate(inst.cycles):
        bits = stepped.generate(inst.representative(c), desc.period)
        assert table.cycles[c] == "".join(map(str, bits)), (inst, c)
    check_located(inst.lfsr, {s: table.locate(s) for s in range(1 << inst.n)})
    graph = inst.graph()
    trees = [tuple(ps[0] for ps in inst.greedy_tree().edges.values())]
    trees += g_trees(graph, limit=3)
    trees += [random_spanning_tree(graph, seed) for seed in range(3)]
    for tree in trees:
        for pairs in (tree[: len(tree) // 2], tree):
            init = rng.randrange(1 << inst.n)
            assert join_cycles(pairs, inst.lfsr, init) == join_cycles(pairs, stepped, init)


@pytest.mark.parametrize("n", range(2, 11))
def test_factor_built_tables_of_every_small_register(n):
    rng = random.Random(n)
    for polys in _factor_sets(n):
        check_factor_built_table(FactoredLfsr(polys), rng)


@pytest.mark.parametrize("factors", GOLDEN)
def test_factor_built_tables_of_the_golden_instances(factors):
    check_factor_built_table(FactoredLfsr.from_strings(factors), random.Random(factors))


def test_a_joined_instance_is_freed_without_the_cycle_collector():
    # the register keeps what builds its table, but not the instance: a
    # reference cycle would keep both alive until the collector runs
    inst = FactoredLfsr.from_strings("11,111,11111")
    join_cycles(next(g_trees(inst.graph(), limit=1)), inst.lfsr)
    refs = weakref.ref(inst), weakref.ref(inst.lfsr)
    gc.disable()
    try:
        del inst
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_join_rejects_start_state_wider_than_register():
    reg = Lfsr(0b1011)
    with pytest.raises(ValueError):
        join_cycles((), reg, init=1 << 3)


@settings(max_examples=40, deadline=None)
@given(factor_sets(), st.data())
def test_joins_on_one_shared_table_match_joins_on_fresh_tables(polys, data):
    # One table serves every join, as in generate and sample, so later joins
    # read the pair positions that earlier ones kept.  A prefix of each tree
    # comes first: it builds only some cycles, and the tree after it then
    # finds pairs whose cycles were not yet built.  Starts include pair
    # states and states on cycles no pair touches.
    inst = FactoredLfsr(polys)
    graph = inst.graph()
    trees = list(g_trees(graph, limit=3))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    trees += [random_spanning_tree(graph, rng) for _ in range(3)]
    shared = Lfsr(inst.poly)
    for tree in trees:
        cut = data.draw(st.integers(0, len(tree)))
        for pairs in (tree[:cut], tree):
            pair_states = [v ^ b for v in pairs for b in (0, 1)]
            init = data.draw(st.sampled_from(pair_states + [0, rng.randrange(1 << inst.n)]))
            fresh = join_cycles(pairs, Lfsr(inst.poly), init)
            assert join_cycles(pairs, shared, init) == fresh


def check_greedy_pairs_arrive_located(inst: FactoredLfsr) -> None:
    """Each greedy pair's kept positions are its windows' on the cycle strings, and the oracle's.

    The oracle finds each pair state's cycle from its blocks, and the
    cycle's representative state stepped to the kept position is that
    pair state.
    """
    n = inst.n
    graph = inst.greedy_tree()
    strings = cycle_strings(inst.cycles, inst.factors)
    assert sorted(graph.located) == sorted(v for (v,) in graph.edges.values())
    for (a, b), (v,) in graph.edges.items():
        p = graph.located[v]
        x, y = p >> 2 * n, p & (1 << 2 * n) - 1
        assert (x >> n, y >> n) == (a, b)
        for c, k, state in ((a, x & (1 << n) - 1, v), (b, y & (1 << n) - 1, v ^ 1)):
            ext = strings[c] * (n // len(strings[c]) + 2)
            assert ext[k : k + n] == state_to_str(state, n)
            assert locate_state(state, inst.basis, inst.factors, inst.cycles) == c
            assert advance(inst.lfsr, inst.representative(c), k) == state
    # the register's table keeps them, so a join of the tree locates none
    assert inst.lfsr.cycle_table()._pairs == graph.located


@pytest.mark.parametrize("n", range(2, 11))
def test_greedy_pairs_of_every_small_register_arrive_located(n):
    for polys in _factor_sets(n):
        check_greedy_pairs_arrive_located(FactoredLfsr(polys))


@pytest.mark.parametrize("factors", GOLDEN)
def test_greedy_pairs_of_the_golden_instances_arrive_located(factors):
    check_greedy_pairs_arrive_located(FactoredLfsr.from_strings(factors))


@pytest.mark.parametrize("n", range(2, 11))
def test_the_locator_matches_the_walk_on_every_state(n):
    # A register stepped without its factors numbers its cycles in the order
    # its walks find them, and reads each from the first state it meets.  So
    # the locator and the walk agree when each factored cycle is one walked
    # cycle, at one fixed offset, and no two share one.
    for polys in _factor_sets(n):
        inst = FactoredLfsr(polys)
        table = inst.lfsr.cycle_table()
        walker = Lfsr(inst.poly).cycle_table()
        same = {}  # factored cycle -> (walked cycle, walked minus factored position)
        for s in range(1 << n):
            c, k = table.locate(s)
            w, j = walker.locate(s)
            length = len(table.cycles[c])
            assert len(walker.cycles[w]) == length, (polys, s)
            assert same.setdefault(c, (w, (j - k) % length)) == (w, (j - k) % length), (polys, s)
        assert len({w for w, _ in same.values()}) == len(walker.cycles) == inst.psi
        assert table.locate(0) == (0, 0)


@pytest.mark.parametrize("factors", GOLDEN)
def test_the_locator_matches_the_walk_and_the_oracle_on_drawn_states(factors):
    # the oracle names each state's cycle from its blocks, and stepping the
    # cycle's representative state to the located position reaches it
    inst = FactoredLfsr.from_strings(factors)
    table = inst.lfsr.cycle_table()
    rng = random.Random(factors)
    for s in [0, 1, (1 << inst.n) - 1] + [rng.randrange(1 << inst.n) for _ in range(300)]:
        c, k = table.locate(s)
        assert c == locate_state(s, inst.basis, inst.factors, inst.cycles)
        assert advance(inst.lfsr, inst.representative(c), k) == s
    for bad in (-1, 1 << inst.n):
        with pytest.raises(ValueError):
            table.locate(bad)


@pytest.mark.parametrize("factors", ["11,1011110010111", "1001001,10000001111"])
def test_partial_walks_no_state_and_builds_no_landmark(factors, monkeypatch, capsys):
    # Every command on a factored register locates through the factors: no
    # table it makes builds a cycle by a walk (_build) or keeps a landmark.
    tables, built = [], []
    real_table, real_build = lfsr.Lfsr.cycle_table, lfsr.CycleTable._build

    def cycle_table(self):
        tables.append(real_table(self))
        return tables[-1]

    def build(self):
        built.append(self)
        return real_build(self)

    monkeypatch.setattr(lfsr.Lfsr, "cycle_table", cycle_table)
    monkeypatch.setattr(lfsr.CycleTable, "_build", build)
    n = sum(len(f) - 1 for f in factors.split(","))
    rng = random.Random(factors)
    starts = [[], ["--initial-state", "0" * n]]
    starts += [["--initial-state", format(rng.getrandbits(n) | 1, f"0{n}b")] for _ in range(3)]
    commands = [["generate", "--partial"], ["generate", "--limit", "2"]]
    commands.append(["sample", "--limit", "2", "--seed", "1"])
    for argv in commands:
        for start in starts:
            assert main([argv[0], "--factors", factors, *argv[1:], *start]) == 0
            lines = capsys.readouterr().out.split()
            assert lines and all(verify_de_bruijn(line, n) for line in lines)
            if start:
                assert all(line.startswith(start[1]) for line in lines)
            assert tables and built == []
            assert all(getattr(table, "_marks", {}) == {} for table in tables)
            del tables[:]


def test_a_repeated_join_walks_no_locate_step():
    # The first join locates both states of each pair and the start state,
    # each by one call of the factors' locator; a repeat finds every pair
    # kept and locates only its start state.
    inst = FactoredLfsr.from_strings("11,1011110010111")
    tree = random_spanning_tree(inst.graph(), 1)
    table = inst.lfsr.cycle_table()
    calls, real_locator = [], table._locator

    def locator(state):
        calls.append(state)
        return real_locator(state)

    table._locator = locator
    first = join_cycles(tree, inst.lfsr)
    assert len(calls) == 2 * len(tree) + 1
    del calls[:]
    assert join_cycles(tree, inst.lfsr) == first
    assert calls == [0]


def test_a_factored_table_after_sampled_joins_is_its_cycle_strings():
    # n=20, psi=30: the cycle strings hold 2^20 bits, about 1 MiB.  Two
    # sampled trees locate their pairs through the factors, so the table
    # adds their 57 kept pairs; a table that walked them to landmarks held
    # 32,776 of those, 3.1 MiB more.
    inst = FactoredLfsr.from_strings("1001001,100000000101011")
    graph = inst.graph()
    trees = [random_spanning_tree(graph, seed) for seed in (1, 2)]
    tracemalloc.start()
    try:
        for tree in trees:
            join_cycles(tree, inst.lfsr)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size < 1.5 * 2**20


def test_kept_pair_positions_memory():
    # 100 sampled trees at psi=236 ask for about 4,000 distinct pairs, kept
    # as one int each under the tree's own pair state: about 0.3 MiB, where
    # two tuples per pair would take about 0.9 MiB
    inst = FactoredLfsr.from_strings("11,1011110010111")
    graph = inst.graph()
    rng = random.Random(1)
    trees = [random_spanning_tree(graph, rng) for _ in range(100)]
    join_cycles(next(g_trees(graph, limit=1)), inst.lfsr)  # builds every cycle
    tracemalloc.start()
    try:
        for tree in trees:
            join_cycles(tree, inst.lfsr)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 600 * 1024


# ---- the window check -------------------------------------------------------


@pytest.mark.parametrize("n", list(range(1, 13)) + [13, 15, 16, 17])
def test_verify_matches_window_oracle(n):
    # 8/9 and 16/17 straddle the switch to wider digits; 7, 11, 13 and 15
    # combine three or four doubled widths
    rng = random.Random(n)
    db = lyndon_de_bruijn(n)
    assert reference_windows(db, n)
    cases = [db, db[::-1], db.translate(str.maketrans("01", "10"))]
    cases += [db[r:] + db[:r] for r in rng.sample(range(1 << n), min(4, 1 << n))]
    for i in rng.sample(range(1 << n), min(4, 1 << n)):
        cases.append(db[:i] + "10"[int(db[i])] + db[i + 1 :])
    cases += ["".join(rng.choice("01") for _ in range(1 << n)) for _ in range(3)]
    cases += ["0" * (1 << n), "01" * (1 << (n - 1))]
    if n <= 3:
        cases += [format(v, f"0{1 << n}b") for v in range(1 << (1 << n))]
    for bits in cases:
        expected = reference_windows(bits, n)
        assert verify_de_bruijn(bits, n) is expected


@pytest.mark.parametrize("n", range(1, 41))
def test_windows_match_per_window_encoding(n, monkeypatch):
    # 1- to 5-byte values in 1-, 2-, 4- and 8-byte slots, on strings far
    # shorter than 2^n; lines of order 17-40 are too long for the oracle above
    rng = random.Random(n)
    lengths = [m for m in (n, n + 1, n + 3, n + 10, 2 * n + 5, 3 * n + 7) if m & (m - 1)]
    cases = [("".join(rng.choice("01") for _ in range(m)), None) for m in lengths]
    # strings shorter than a window go round it more than once
    cases += [("".join(rng.choice("01") for _ in range(m)), None) for m in (1, 3) if m < n]
    for m in (2 * n + 5, 3 * n + 6):  # never powers of two
        # copy the window at i over the one at j >= i + n
        bits = "".join(rng.choice("01") for _ in range(m))
        i = rng.randrange(m - 2 * n + 1)
        j = rng.randrange(i + n, m - n + 1)
        cases.append((bits[:j] + bits[i : i + n] + bits[j + n :], (i, j)))
    for bits, repeat in cases:
        # read cyclically: the last n - 1 windows run on into the first bits,
        # round the string again when it is shorter than n - 1
        wrapped = bits * n
        expected = [int(wrapped[i : i + n][::-1], 2) for i in range(len(bits))]
        if repeat:
            assert expected[repeat[0]] == expected[repeat[1]]
        data = bits.encode()
        assert lfsr.cyclic_windows(data, n).tolist() == expected
        # the other byte order puts each byte at the other end of its slot
        monkeypatch.setattr(lfsr, "_BIG_ENDIAN", sys.byteorder == "little")
        swapped = lfsr.cyclic_windows(data, n)
        monkeypatch.undo()
        swapped.byteswap()
        assert swapped.tolist() == expected


@pytest.mark.parametrize("n", range(1, 42))
def test_windows_at_a_step_are_every_step_th_window(n, monkeypatch):
    # verify reads width n + 1 at step 2, up to 41 bits at n = 40; a walked
    # cycle table reads its landmarks at step 2^(n/4)
    rng = random.Random(n)
    lengths = (1, 2, 3, n, n + 1, 2 * n + 5, 3 * n + 6, 1 << min(n, 12))
    for m in lengths:
        data = "".join(rng.choice("01") for _ in range(m)).encode()
        every = lfsr.cyclic_windows(data, n)
        for step in sorted({2, 3, 1 << n // 4}):
            expected = every[::step].tolist()
            assert lfsr.cyclic_windows(data, n, step).tolist() == expected
            monkeypatch.setattr(lfsr, "_BIG_ENDIAN", sys.byteorder == "little")
            swapped = lfsr.cyclic_windows(data, n, step)
            monkeypatch.undo()
            swapped.byteswap()
            assert swapped.tolist() == expected


@pytest.mark.parametrize("n", range(1, 42))
def test_windows_at_steps_of_every_residue_pattern(n, monkeypatch):
    # steps 5 and 7 meet all eight residues mod 8, 6 four and 12 two, so
    # their windows come from 8, 4 and 2 shifted copies of the packed bits
    rng = random.Random(1000 + n)
    lengths = (1, 2, 7, n, n + 1, 2 * n + 5, 3 * n + 6, 8 * n + 3, 1 << min(n, 11))
    for m in lengths:
        bits = "".join(rng.choice("01") for _ in range(m))
        wrapped = bits * (n // m + 2)
        for step in (5, 6, 7, 12):
            expected = [int(wrapped[i : i + n][::-1], 2) for i in range(0, m, step)]
            data = bits.encode()
            assert lfsr.cyclic_windows(data, n, step).tolist() == expected
            monkeypatch.setattr(lfsr, "_BIG_ENDIAN", sys.byteorder == "little")
            swapped = lfsr.cyclic_windows(data, n, step)
            monkeypatch.undo()
            swapped.byteswap()
            assert swapped.tolist() == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_verify_matches_window_oracle_on_every_flip_and_swap(n):
    # a flip or a swap of adjacent bits moves windows at positions of both
    # parities, so it reaches both halves of each (n+1)-bit window
    db = lyndon_de_bruijn(n)
    flip = str.maketrans("01", "10")
    cases = [db[:i] + db[i].translate(flip) + db[i + 1 :] for i in range(1 << n)]
    cases += [db[:i] + db[i + 1] + db[i] + db[i + 2 :] for i in range((1 << n) - 1)]
    cases.append(db[-1] + db[1:-1] + db[0])  # the swap across the wrap
    for bits in cases:
        assert verify_de_bruijn(bits, n) is reference_windows(bits, n)


def even_windows_distinct_odd_repeats(n: int) -> list[str]:
    """Strings of length 2^n whose even-position windows are pairwise distinct
    while some odd-position window repeats one of them."""
    out = []
    for v in range(1 << (1 << n)):
        bits = format(v, f"0{1 << n}b")
        ext = bits + bits[: n - 1]
        windows = [ext[i : i + n] for i in range(1 << n)]
        even = set(windows[0::2])
        if len(even) == 1 << (n - 1) and even.intersection(windows[1::2]):
            out.append(bits)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_rejects_an_odd_window_repeating_an_even_one(n):
    cases = even_windows_distinct_odd_repeats(n)
    if n == 2:
        assert "0001" in cases
    assert cases
    for bits in cases:
        assert not reference_windows(bits, n)
        assert verify_de_bruijn(bits, n) is False


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_accepts_exactly_the_de_bruijn_strings(n):
    # 2^(2^(n-1) - n) de Bruijn cycles of order n, each with 2^n distinct
    # rotations: 2, 4, 16 and 256 of the 2^(2^n) strings of length 2^n
    strings = [format(v, f"0{1 << n}b") for v in range(1 << (1 << n))]
    assert sum(verify_de_bruijn(bits, n) for bits in strings) == 1 << (1 << (n - 1))


def test_verify_peak_memory_at_order_20():
    # a set of the 2^20 window values peaks at 82 MB
    inst = FactoredLfsr.from_strings("1001001,100000000101011")
    pairs = tuple(bundle[0] for bundle in inst.greedy_tree().edges.values())
    bits = join_cycles(pairs, inst.lfsr).bits
    tracemalloc.start()
    try:
        assert verify_de_bruijn(bits, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24_000_000


def test_verify_rejects_bad_input():
    with pytest.raises(ValueError, match="length"):
        verify_de_bruijn("0101", 3)
    with pytest.raises(ValueError, match="length"):
        verify_de_bruijn("011", 2)
    with pytest.raises(ValueError, match="binary"):
        verify_de_bruijn("0012", 2)
    with pytest.raises(ValueError, match="binary"):
        verify_de_bruijn("01 1", 2)
    with pytest.raises(ValueError, match="below 1"):
        verify_de_bruijn("0", 0)


def test_verify_rejects_non_ascii_and_unmatchable_orders():
    with pytest.raises(ValueError, match="binary"):
        verify_de_bruijn("0é01", 2)
    with pytest.raises(ValueError, match="binary"):
        verify_de_bruijn("0١", 1)  # a non-ASCII digit
    # the length check never builds 1 << n for an order the length cannot match
    with pytest.raises(ValueError, match="length"):
        verify_de_bruijn("0101", 10**12)
    with pytest.raises(ValueError, match="length"):
        verify_de_bruijn("01", 10**12)


def test_verify_rejects_what_int_parses_but_is_not_binary():
    # the windows are read through int(..., 2), which takes a prefix, an
    # underscore, a sign and surrounding spaces; none of them is a bit
    for seq in ("0b01", "0_01", "+001", "-001", " 001"):
        with pytest.raises(ValueError, match="binary"):
            verify_de_bruijn(seq, 2)


def test_verify_takes_only_a_str():
    for seq in ([0, 1], ["0", "1"], b"01", (0, 1)):
        with pytest.raises(TypeError, match="must be a str"):
            verify_de_bruijn(seq, 1)
