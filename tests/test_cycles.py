import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclejoin.cycles import (
    canonical_shifts,
    enumerate_cycles,
    shift_levels,
    states_per_factor,
)
from cyclejoin.gf2 import is_irreducible
from cyclejoin.lfsr import Lfsr, state_to_str
from cyclejoin.pipeline import FactoredLfsr
from state_oracle import advance, locate_state, merge_congruence, step

N7 = "11,111,11111"

# golden cycle table for the 7-stage instance: state bits (s_0 first) and period
N7_CYCLE_TABLE = [
    ("0000000", 1),
    ("1011011", 3),
    ("1000110", 5),
    ("0111101", 5),
    ("0010100", 5),
    ("0011101", 15),
    ("1100110", 15),
    ("1001111", 15),
    ("1111111", 1),
    ("0100100", 3),
    ("0111001", 5),
    ("1000010", 5),
    ("1101011", 5),
    ("1100010", 15),
    ("0011001", 15),
    ("0110000", 15),
]


def test_states_per_factor_n7_reference():
    fd = states_per_factor(0b11111)
    assert fd.order == 5 and fd.t == 3
    assert fd.assoc_primitive == 0b10011
    assert [state_to_str(s, 4) for s in fd.states] == ["1000", "0111", "0010"]


def test_states_per_factor_primitive_cases():
    assert states_per_factor(0b111).states == (1,)
    assert states_per_factor(0b11).states == (1,)
    fd = states_per_factor(0b10011)
    assert fd.states == (1,) and fd.t == 1 and fd.order == 15


def test_states_per_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        states_per_factor(0b1001)  # reducible
    with pytest.raises(ValueError):
        states_per_factor(0b10)  # x


def test_factor_locate():
    fd = states_per_factor(0b11111)
    for j, rep in enumerate(fd.states):
        assert fd.locate(rep) == (j, 0)
        assert fd.locate(advance(Lfsr(fd.poly), rep, 3)) == (j, 3)
    with pytest.raises(ValueError):
        fd.locate(0)


def test_factor_locate_rejects_states_wider_than_the_factor():
    fd = states_per_factor(0b11111)
    for state in (1 << 4, -1):
        with pytest.raises(ValueError, match="does not fit"):
            fd.locate(state)


def test_orbit_walk_rejects_representatives_on_one_cycle(monkeypatch):
    # p itself as its own "primitive": its m-sequence is one cycle of 5
    # states, too short to hold the 15 nonzero states
    monkeypatch.setattr("cyclejoin.cycles.find_associated_primitive", lambda p: p)
    with pytest.raises(AssertionError, match="is not primitive"):
        states_per_factor(0b11111)


def _factor_oracle(p):
    """states, orbits and positions of p, stepped and scanned with no package code.

    The associated primitive q is taken from the package; everything
    else comes from stepping registers: q's m-sequence from
    (1, 0, ..., 0), the start whose t-decimation opens with
    (1, 0, ..., 0) by trying every start, and p's orbits from the
    decimations' first n bits.
    """
    q = states_per_factor(p).assoc_primitive
    n = p.bit_length() - 1
    size = (1 << n) - 1
    reg_q, reg_p = Lfsr(q), Lfsr(p)
    seq, seen, x = [], set(), 1
    for _ in range(size):
        seen.add(x)
        seq.append(x & 1)
        x = step(reg_q, x)
    assert x == 1 and len(seen) == size
    order, x = 1, step(reg_p, 1)
    while x != 1:
        order, x = order + 1, step(reg_p, x)
    t = size // order
    impulse = [1] + [0] * (n - 1)
    starts = [
        i for i in range(size) if [seq[(i + t * m) % size] for m in range(n)] == impulse
    ]
    assert len(starts) == 1
    states, orbits = [], []
    where = [-1] * (size + 1)
    for j in range(t):
        rep = sum(seq[(starts[0] + j + t * m) % size] << m for m in range(n))
        orbit, x = [], rep
        for k in range(order):
            assert where[x] == -1
            where[x] = j * order + k
            orbit.append(x)
            x = step(reg_p, x)
        assert x == rep
        states.append(rep)
        orbits.append(orbit)
    assert where.count(-1) == 1
    return tuple(states), orbits, where


def test_states_per_factor_matches_the_stepped_oracle_up_to_degree_10():
    checked = 0
    for n in range(1, 11):
        for p in range((1 << n) | 1, 1 << (n + 1), 2):
            if not is_irreducible(p):
                continue
            fd = states_per_factor(p)
            states, orbits, where = _factor_oracle(p)
            assert fd.states == states
            assert [fd.orbit(j) for j in range(fd.t)] == orbits
            assert fd.positions() == where
            checked += 1
    assert checked == 225


@pytest.mark.parametrize("poly", ["1011110010111", "1111111111111"])
def test_states_per_factor_matches_the_stepped_oracle_on_many_orbits(poly):
    # t = 117 and t = 315 orbits, all read from one window call
    fd = states_per_factor(int(poly, 2))
    states, orbits, where = _factor_oracle(int(poly, 2))
    assert fd.t == len(orbits) and fd.t in (117, 315)
    assert fd.states == states
    assert [fd.orbit(j) for j in range(fd.t)] == orbits
    assert fd.positions() == where


def test_enumerate_cycles_n7_reference():
    inst = FactoredLfsr.from_strings(N7)
    assert inst.psi == 16
    assert [c.period for c in inst.cycles] == [p for _, p in N7_CYCLE_TABLE]
    assert not any(inst.cycles[0].flags)  # the zero cycle is vertex 0


def test_representative_states_n7_reference():
    inst = FactoredLfsr.from_strings(N7)
    got = [(state_to_str(inst.representative(i), 7), c.period) for i, c in enumerate(inst.cycles)]
    assert got == N7_CYCLE_TABLE


def test_enumerate_cycles_single_primitive():
    factors = [states_per_factor(0b1011)]
    cs = enumerate_cycles(factors)
    assert len(cs) == 2
    assert [c.period for c in cs] == [1, 7]


@pytest.mark.parametrize(
    "facs,psi",
    [
        ("1011,1101", 10),
        ("11,111,11111", 16),
        ("11,1101,11001", 8),
        ("10011,11111", 20),
        ("111,1011,11111", 16),
        ("11,100111001", 32),
        ("11,111,1011,11111", 32),
        ("11111111111", 94),
        ("111,1011,1001001", 60),
        ("101011100011", 90),
        ("1001001,1010111", 74),
    ],
)
def test_cycle_counts_and_period_sum(facs, psi):
    inst = FactoredLfsr.from_strings(facs)
    assert inst.psi == psi
    assert sum(c.period for c in inst.cycles) == 1 << inst.n


def _random_factor_sets(seed, count, max_n=12):
    pool = [p for d in range(1, 9) for p in range(1 << d, 1 << (d + 1)) if p & 1 and is_irreducible(p)]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rng.shuffle(pool)
        picked, total = [], 0
        for p in pool:
            d = p.bit_length() - 1
            if total + d <= max_n:
                picked.append(p)
                total += d
            if total >= max_n - 2:
                break
        if total >= 2:
            out.append(sorted(picked))
    return out


def test_period_sum_random_factor_sets():
    for polys in _random_factor_sets(seed=1, count=8):
        inst = FactoredLfsr(polys)
        assert sum(c.period for c in inst.cycles) == 1 << inst.n


@pytest.mark.parametrize("facs", ["11,111,11111", "1011,1101", "10011,11111", "11,100111001"])
def test_cycles_partition_the_state_space(facs):
    inst = FactoredLfsr.from_strings(facs)
    seen = set()
    for i, c in enumerate(inst.cycles):
        v = inst.representative(i)
        for _ in range(c.period):
            assert v not in seen
            seen.add(v)
            v = step(inst.lfsr, v)
        assert v == inst.representative(i)  # closes after exactly `period` steps
    assert len(seen) == 1 << inst.n


def test_zero_descriptor_maps_to_zero_state():
    inst = FactoredLfsr.from_strings(N7)
    assert inst.representative(0) == 0


def test_locate_state_roundtrip():
    inst = FactoredLfsr.from_strings("10011,11111")
    for i, c in enumerate(inst.cycles):
        v = inst.representative(i)
        assert locate_state(v, inst.basis, inst.factors, inst.cycles) == i
        w = advance(inst.lfsr, v, 5 % c.period if c.period > 1 else 0)
        assert locate_state(w, inst.basis, inst.factors, inst.cycles) == i
    assert locate_state(0, inst.basis, inst.factors, inst.cycles) == 0


def test_special_cycle_is_v16_in_n7_reference():
    inst = FactoredLfsr.from_strings(N7)
    assert inst.cycles.special_index == 15
    # S itself lies on that cycle
    assert locate_state(1, inst.basis, inst.factors, inst.cycles) == 15


def test_merge_congruence():
    assert merge_congruence(1, 3, 4, 6) == (4, 6)
    assert merge_congruence(1, 4, 0, 6) is None
    assert merge_congruence(2, 4, 0, 6) == (6, 12)
    a, m = merge_congruence(3, 5, 4, 7)
    assert m == 35 and a % 5 == 3 and a % 7 == 4


def test_canonical_shifts_invariance_under_global_shift():
    rng = random.Random(9)
    orders = [1, 7, 15]
    flags = (1, 1, 1)
    for _ in range(50):
        shifts = [rng.randrange(e) for e in orders]
        base = canonical_shifts(flags, shifts, orders)
        r = rng.randrange(1, 105)
        moved = [(sh + r) % e for sh, e in zip(shifts, orders)]
        assert canonical_shifts(flags, moved, orders) == base
        assert base[0] == 0 or flags[0] == 0


def reference_canonical_shifts(flags, shifts, orders):
    """canonical_shifts as a loop of textbook CRT merges."""
    rho, mod = 0, 1
    out = []
    for a, sh, e in zip(flags, shifts, orders, strict=True):
        if not a:
            out.append(0)
            continue
        l = (sh + rho) % gcd(e, mod)
        out.append(l)
        rho, mod = merge_congruence(rho, mod, (l - sh) % e, e)
    return tuple(out)


@st.composite
def shift_tuples(draw):
    """Orders, flags and two shift tuples; the second is often a global shift of the first."""
    orders = draw(st.lists(st.sampled_from([1, 3, 5, 7, 9, 15, 21, 63, 73]), min_size=1, max_size=4))
    flags = draw(st.lists(st.integers(0, 1), min_size=len(orders), max_size=len(orders)))
    first = [draw(st.integers(0, e - 1)) if a else 0 for a, e in zip(flags, orders)]
    if draw(st.booleans()):
        r = draw(st.integers(0, lcm(*orders) - 1))
        second = [(sh + r) % e if a else 0 for a, sh, e in zip(flags, first, orders)]
    else:
        second = [draw(st.integers(0, e - 1)) if a else 0 for a, e in zip(flags, orders)]
    return flags, orders, first, second


@settings(max_examples=300, deadline=None)
@given(shift_tuples())
def test_canonical_shifts_is_the_crt_merge_and_names_shift_classes(drawn):
    flags, orders, first, second = drawn
    canon = canonical_shifts(flags, first, orders)
    assert canon == reference_canonical_shifts(flags, first, orders)
    assert canonical_shifts(flags, second, orders) == reference_canonical_shifts(flags, second, orders)
    # each shift lies in its range, and the ranges multiply out to the period
    levels = shift_levels(flags, orders)
    assert all(l < g for l, (g, _, _, _) in zip(canon, levels))
    active = [e for a, e in zip(flags, orders) if a]
    period = lcm(*active)
    assert levels[-1][1] * levels[-1][2] == period
    # same canonical form exactly when one global shift moves one tuple onto the other
    same_class = any(
        all((x + r) % e == y for a, x, y, e in zip(flags, first, second, orders) if a)
        for r in range(period)
    )
    assert (canonical_shifts(flags, second, orders) == canon) == same_class


def test_describe():
    inst = FactoredLfsr.from_strings(N7)
    assert inst.cycles[0].describe() == "[0]"
    assert inst.cycles[1].describe() == "[u2[0]]"
    assert "u1[0]" in inst.cycles[15].describe()
