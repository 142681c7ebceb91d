import random
from functools import reduce

import pytest

from cyclejoin.gf2 import poly_mul
from cyclejoin.lfsr import (
    Lfsr,
    StateBasis,
    bits_to_state,
    parse_state,
    state_to_str,
)
from state_oracle import advance, state_to_bits, step

M_SEQ_25 = "1000100110101111000100110"


def test_generate_m_sequence():
    reg = Lfsr(0b10011)
    out = reg.generate(1, 25)
    assert "".join(map(str, out)) == M_SEQ_25


def test_generate_degenerate_inputs():
    assert Lfsr(0b10011).generate(0, 10) == [0] * 10
    assert Lfsr(0b11).generate(1, 4) == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        Lfsr(0b10011).generate(1 << 4, 1)


def test_nonsingular_required():
    with pytest.raises(ValueError):
        Lfsr(0b10)  # x
    with pytest.raises(ValueError):
        Lfsr(0b110)  # constant term 0
    with pytest.raises(ValueError):
        Lfsr(0b1)


def test_advance_examples():
    reg = Lfsr(0b10011)
    s = bits_to_state((1, 0, 0, 0))
    assert advance(reg, s, 0) == s
    assert state_to_bits(advance(reg, s, 1), 4) == (0, 0, 0, 1)
    assert advance(reg, s, 15) == s  # cycle closure at the period


def test_advance_matches_stepping_across_threshold():
    rng = random.Random(11)
    for poly in (0b10011, 0b11111, 0b101001101):
        reg = Lfsr(poly)
        for _ in range(20):
            s = rng.randrange(1 << reg.n)
            k = rng.randrange(0, 10 * reg.n)
            brute = s
            for _ in range(k):
                brute = step(reg, brute)
            assert advance(reg, s, k) == brute
    with pytest.raises(ValueError):
        advance(reg, 1, -1)


N7_FACTORS = [0b11, 0b111, 0b11111]


def test_state_basis_golden_rows():
    basis = StateBasis(N7_FACTORS)
    rows = [state_to_bits(r, 7) for r in basis.rows]
    assert rows[0] == (1, 1, 1, 1, 1, 1, 1)
    assert rows[1] == (1, 0, 1, 1, 0, 1, 1)
    assert rows[2] == (0, 1, 1, 0, 1, 1, 0)
    assert rows[3] == (1, 0, 0, 0, 1, 1, 0)
    assert rows[4] == (0, 1, 0, 0, 1, 0, 1)
    assert rows[5] == (0, 0, 1, 0, 1, 0, 0)
    assert rows[6] == (0, 0, 0, 1, 1, 0, 0)


def test_state_basis_compose_golden_values():
    basis = StateBasis(N7_FACTORS)
    v = basis.compose([1, bits_to_state((1, 0)), bits_to_state((1, 0, 0, 0))])
    assert state_to_str(v, 7) == "1100010"
    # the special state maps to (1,1,1,1,0,1,0), split 1 | 11 | 1010
    blocks = basis.decompose(1)
    assert state_to_str(blocks[0], 1) == "1"
    assert state_to_str(blocks[1], 2) == "11"
    assert state_to_str(blocks[2], 4) == "1010"


def test_state_basis_roundtrip_and_zero():
    rng = random.Random(3)
    basis = StateBasis(N7_FACTORS)
    assert basis.decompose(0) == [0, 0, 0]
    assert basis.compose([0, 0, 0]) == 0
    for _ in range(100):
        v = rng.randrange(1 << 7)
        assert basis.compose(basis.decompose(v)) == v


def test_state_basis_single_primitive_factor():
    basis = StateBasis([0b10011])
    # impulse-response rows; full rank by construction
    assert basis.compose(basis.decompose(0b1010)) == 0b1010
    assert basis.rows[0] & 1


def test_state_basis_rank_deficiency():
    with pytest.raises(ValueError):
        StateBasis([0b11, 0b11])


def test_basis_commutes_with_state_operator():
    rng = random.Random(5)
    for polys in ([0b11, 0b111, 0b11111], [0b1011, 0b1101], [0b111, 0b1011, 0b11111]):
        basis = StateBasis(polys)
        regs = [Lfsr(p) for p in polys]
        full = Lfsr(reduce(poly_mul, polys))
        for _ in range(25):
            blocks = [rng.randrange(1 << r.n) for r in regs]
            v = basis.compose(blocks)
            stepped = basis.compose([step(r, b) for r, b in zip(regs, blocks)])
            assert step(full, v) == stepped


def test_composed_sequence_is_sum_of_components():
    rng = random.Random(6)
    for polys in ([0b11, 0b111, 0b11111], [0b10011, 0b11111]):
        basis = StateBasis(polys)
        regs = [Lfsr(p) for p in polys]
        full = Lfsr(reduce(poly_mul, polys))
        for _ in range(10):
            blocks = [rng.randrange(1 << r.n) for r in regs]
            v = basis.compose(blocks)
            length = 3 * (1 << full.n) // 2
            joint = full.generate(v, length)
            parts = [r.generate(b, length) for r, b in zip(regs, blocks)]
            summed = [sum(bits) & 1 for bits in zip(*parts)]
            assert joint == summed


def test_state_string_helpers():
    assert state_to_str(0b0101, 4) == "1010"
    assert parse_state("1010") == 0b0101
    assert parse_state(state_to_str(37, 8)) == 37
    with pytest.raises(ValueError):
        parse_state("12")
    with pytest.raises(ValueError):
        bits_to_state((0, 2))
