import functools
import operator
import random

import pytest

from cyclejoin.gf2 import (
    degree,
    format_poly,
    is_irreducible,
    is_primitive,
    parse_poly,
    poly_divmod,
    poly_gcd,
    poly_mod,
    poly_mul,
    poly_mulmod,
    poly_powmod,
    prime_factors,
)
from field_oracle import (
    CyclotomicParams,
    FieldContext,
    cyclotomic_number,
    find_associated_primitive,
    poly_order,
)

X = 0b10


def irreducibles(deg):
    return [p for p in range(1 << deg, 1 << (deg + 1)) if is_irreducible(p)]


def test_parse_and_format():
    assert parse_poly("1011") == 0b1011
    assert parse_poly("11111") == 0b11111
    assert parse_poly("100 111 111") == parse_poly("100111111")
    assert format_poly(0b1011) == "1011"
    assert parse_poly(format_poly(12345)) == 12345
    for bad in ("", "  ", "10a1", "0"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_arithmetic_basics():
    # gcd with itself
    assert poly_gcd(0b11, 0b11) == 0b11
    # (x+1)(x^2+x+1) = x^3+1
    assert poly_mul(0b11, 0b111) == 0b1001
    # evaluate x^4+x^3+x^2+x+1 at x=1: five terms sum to 1
    assert poly_mod(0b11111, 0b11) == 1
    with pytest.raises(ZeroDivisionError):
        poly_mod(0b101, 0)


def test_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.randrange(1 << 16)
        b = rng.randrange(1, 1 << 9)
        q, r = poly_divmod(a, b)
        assert degree(r) < degree(b)
        assert poly_mul(q, b) ^ r == a


def test_mulmod_is_the_product_reduced():
    # a and b unreduced as well as reduced, m down to degree 0
    rng = random.Random(9)
    for _ in range(2000):
        m = rng.randrange(1, 1 << rng.randrange(1, 40))
        a = rng.randrange(1 << rng.randrange(1, 60))
        b = rng.randrange(1 << rng.randrange(1, 60))
        assert poly_mulmod(a, b, m) == poly_mod(poly_mul(a, b), m)
    for a, b in [(0, 0), (0b101, 0b11)]:
        with pytest.raises(ZeroDivisionError, match="zero polynomial"):
            poly_mulmod(a, b, 0)


def test_gcd_divides_both():
    rng = random.Random(8)
    for _ in range(200):
        a, b = rng.randrange(1, 1 << 12), rng.randrange(1, 1 << 12)
        g = poly_gcd(a, b)
        assert poly_mod(a, g) == 0 and poly_mod(b, g) == 0


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(15) == [3, 5]
    assert prime_factors(2**11 - 1) == [23, 89]
    assert prime_factors(2**13 - 1) == [8191]


def test_is_irreducible_examples():
    assert is_irreducible(0b111)  # only degree-2 irreducible
    assert not is_irreducible(0b1001)  # x^3+1 has root 1
    assert is_irreducible(0b11111)
    assert is_irreducible(0b11) and is_irreducible(0b10)
    with pytest.raises(ValueError):
        is_irreducible(1)


def test_irreducible_counts_match_necklace_formula():
    # number of monic irreducibles of degree d over GF(2)
    expected = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
    for d, cnt in expected.items():
        assert len(irreducibles(d)) == cnt


def test_poly_order_examples():
    assert poly_order(0b11111) == 5
    assert poly_order(0b10011) == 15
    assert poly_order(0b11) == 1
    with pytest.raises(ValueError):
        poly_order(0b1001)  # reducible
    with pytest.raises(ValueError):
        poly_order(0b10)  # x


def test_poly_order_is_minimal_and_divides():
    for d in range(1, 9):
        for p in irreducibles(d):
            if p == 0b10:
                continue
            e = poly_order(p)
            assert ((1 << d) - 1) % e == 0
            assert poly_powmod(X, e, p) == 1
            # minimality, brute force
            for k in range(1, e):
                assert poly_powmod(X, k, p) != 1


def test_is_primitive():
    assert is_primitive(0b10011)
    assert is_primitive(0b111)
    assert not is_primitive(0b11111)  # order 5 < 15


def _minimal_polynomial(beta, q):
    """Independent oracle: product of (x + conjugate) computed in GF(2^n)."""
    conjugates = []
    c = beta
    while c not in conjugates:
        conjugates.append(c)
        c = poly_mulmod(c, c, q)
    # polynomial coefficients live in the field; multiply out term by term
    coeffs = [1]  # leading coefficient of prod (x + c_k)
    for c in conjugates:
        nxt = [0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] ^= poly_mulmod(a, c, q)  # a * c  (x^i term)
            nxt[i + 1] ^= a  # a * x
        coeffs = nxt
    assert all(a in (0, 1) for a in coeffs), "minimal polynomial must land in GF(2)"
    out = 0
    for i, a in enumerate(coeffs):
        out |= a << i
    return out


def test_find_associated_primitive_golden_case():
    assert find_associated_primitive(0b11111) == 0b10011


def test_find_associated_primitive_trivial_cases():
    assert find_associated_primitive(0b111) == 0b111
    for p in (0b1011, 0b10011, 0b11):
        assert find_associated_primitive(p) == p


def test_find_associated_primitive_minimal_polynomial_property():
    for d in range(2, 9):
        for g in irreducibles(d):
            e = poly_order(g)
            t = ((1 << d) - 1) // e
            if t == 1:
                continue
            q = find_associated_primitive(g)
            assert is_primitive(q) and degree(q) == d
            beta = poly_powmod(X, t, q)
            assert _minimal_polynomial(beta, q) == g


def _times_x(a, q, d):
    """a * x modulo q, for a of degree below d = deg q."""
    a <<= 1
    return a ^ q if a >> d else a


def _powers_of_x(q, d):
    """x^0, x^1, ... mod q, for q with constant term 1, up to the first return to 1."""
    powers = [1]
    a = _times_x(1, q, d)
    while a != 1:
        powers.append(a)
        a = _times_x(a, q, d)
    return powers


def _brute_irreducible(p, d):
    """No factor of degree 1 to d // 2, by long division bit by bit."""
    for f in range(2, 1 << (d // 2 + 1)):
        r, fd = p, f.bit_length() - 1
        while r.bit_length() - 1 >= fd:
            r ^= f << (r.bit_length() - 1 - fd)
        if r == 0:
            return False
    return True


def test_find_associated_primitive_matches_brute_force_up_to_degree_9():
    # The oracle shares no code with gf2: the orbit of x modulo each q,
    # found by shifts, says whether q is primitive (its length is 2^d - 1)
    # and gives x^k for every k, so g(x^t) = sum of x^(i t) over g's terms.
    # The first q in ascending order that is primitive with g(x^t) = 0 is
    # the associate; a primitive g is its own.
    checked = 0
    for d in range(1, 10):
        period = (1 << d) - 1
        primitive = []  # (q, its powers of x), ascending
        for q in range(1 << d | 1, 1 << (d + 1), 2):
            powers = _powers_of_x(q, d)
            if len(powers) == period:
                primitive.append((q, powers))
        for g in range(1 << d | 1, 1 << (d + 1), 2):
            if not _brute_irreducible(g, d):
                continue
            t = period // len(_powers_of_x(g, d))
            want = next(
                q
                for q, powers in primitive
                if not functools.reduce(
                    operator.xor, (powers[i * t % period] for i in range(d + 1) if g >> i & 1)
                )
            )
            if t == 1:
                assert want == g
            assert find_associated_primitive(g) == want
            checked += 1
    assert checked == 126  # the irreducibles of degree 1 to 9 with constant term 1


def test_field_context_zech_examples():
    ctx = FieldContext(0b10011)
    assert ctx.zech[1] == 4  # alpha^4 = alpha + 1 is the modulus relation
    assert ctx.zech[0] is None
    assert ctx.zech_log(0) is None
    assert sorted(ctx.zech[1:]) == list(range(1, 15))  # permutation of 1..14


def test_field_context_rejects_non_primitive():
    with pytest.raises(ValueError):
        FieldContext(0b11111)
    with pytest.raises(ValueError):
        FieldContext(0b1001)


@pytest.mark.parametrize("q", [0b111, 0b1011, 0b10011, 0b100101, 0b11000001, 0b10000001001])
def test_zech_identity_whole_table(q):
    # alpha^zech(l) == alpha^l + 1, with powers recomputed independently
    ctx = FieldContext(q)
    for l in range(1, ctx.e):
        lhs = poly_powmod(X, ctx.zech[l], q)
        rhs = poly_powmod(X, l, q) ^ 1
        assert lhs == rhs
    assert sorted(ctx.zech[1:]) == list(range(1, ctx.e))


def _cyclotomic_oracle(i, j, t, q):
    """Brute-force scan over all field elements with independent dlogs."""
    n = degree(q)
    e = ((1 << n) - 1) // t
    dlog = {poly_powmod(X, k, q): k for k in range((1 << n) - 1)}
    count = 0
    for xi in range(1, 1 << n):
        if dlog[xi] % t != i % t:
            continue
        succ = xi ^ 1
        if succ and dlog[succ] % t == j % t:
            count += 1
    return count


def test_cyclotomic_primitive_case():
    ctx = FieldContext(0b1011)  # GF(8)
    params = CyclotomicParams(e=7, t=1)
    assert cyclotomic_number(0, 0, params, ctx) == 6  # 2^3 - 2
    assert _cyclotomic_oracle(0, 0, 1, 0b1011) == 6


def test_cyclotomic_gf16_t3_matrix():
    ctx = FieldContext(0b10011)
    params = CyclotomicParams.for_factor(4, 5)
    mat = [[cyclotomic_number(i, j, params, ctx) for j in range(3)] for i in range(3)]
    for i in range(3):
        for j in range(3):
            assert mat[i][j] == _cyclotomic_oracle(i, j, 3, 0b10011)
    # row and column sums are e or e-1
    for i in range(3):
        assert sum(mat[i]) in (5, 4)
        assert sum(row[i] for row in mat) in (5, 4)
    assert sum(map(sum, mat)) == 14  # 2^4 - 2


@pytest.mark.parametrize(
    "q,t",
    [(0b10011, 1), (0b10011, 3), (0b10011, 5), (0b100101, 1), (0b1000011, 21), (0b100000000101, 89)],
)
def test_cyclotomic_totals(q, t):
    ctx = FieldContext(q)
    params = CyclotomicParams(e=ctx.e // t, t=t)
    total = sum(
        cyclotomic_number(i, j, params, ctx) for i in range(t) for j in range(t)
    )
    assert total == (1 << ctx.n) - 2


def test_cyclotomic_params_validation():
    with pytest.raises(ValueError):
        CyclotomicParams(e=6, t=2)
    assert CyclotomicParams.for_factor(4, 5).t == 3
