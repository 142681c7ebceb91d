"""Polynomial and finite-field arithmetic over GF(2).

Polynomials live in F_2[x] and are represented as plain Python ints:
bit i holds the coefficient of x^i, so 0b1011 is x^3 + x + 1.  The text
form used at every interface lists coefficients from the highest degree
down to the constant term ("1011" is x^3 + x + 1, "11111" is
x^4 + x^3 + x^2 + x + 1); embedded whitespace is ignored.  Because the
constant term ends up in bit 0, parsing a coefficient string is just
``int(s, 2)``.

Beyond plain arithmetic the module provides irreducibility and
primitivity tests, multiplicative orders, and the search for an associated
primitive polynomial (a primitive q whose root alpha satisfies
alpha^t = beta for the root beta of a non-primitive irreducible g).
All computations are exact; nothing here is probabilistic.
"""

__all__ = [
    "degree",
    "parse_poly",
    "format_poly",
    "poly_mul",
    "poly_divmod",
    "poly_mod",
    "poly_gcd",
    "poly_mulmod",
    "poly_powmod",
    "is_irreducible",
    "poly_order",
    "is_primitive",
    "find_associated_primitive",
    "prime_factors",
]

X = 0b10  # the polynomial x


def degree(p: int) -> int:
    """Degree of p; -1 for the zero polynomial."""
    return p.bit_length() - 1


def parse_poly(text: str) -> int:
    """Parse a coefficient string (highest degree first) into a polynomial.

    Whitespace is stripped, so "100 111 111" is accepted.
    """
    s = "".join(text.split())
    if not s or s.strip("01"):
        raise ValueError(f"cannot parse polynomial {text!r}: expected a string of 0s and 1s")
    p = int(s, 2)
    if p == 0:
        raise ValueError(f"cannot parse polynomial {text!r}: zero polynomial")
    return p


def format_poly(p: int) -> str:
    """Inverse of parse_poly."""
    if p < 0:
        raise ValueError("negative value is not a polynomial")
    return bin(p)[2:]


def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two polynomials."""
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def poly_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a divided by b, for b nonzero."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    m, n = degree(a), degree(b)
    if m < n:
        return 0, a
    q = 0
    b <<= m - n
    for i in range(m - n, -1, -1):
        if a >> (i + n) & 1:
            a ^= b
            q |= 1 << i
        b >>= 1
    return q, a


def poly_mod(a: int, b: int) -> int:
    """Remainder of a modulo b, for b nonzero."""
    return poly_divmod(a, b)[1]


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor; gcd(0, 0) is 0."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_mulmod(a: int, b: int, m: int) -> int:
    """a * b modulo m, for m nonzero, reduced as it multiplies.

    a times x^i is kept below the degree of m: each shift that reaches
    it XORs m back in, so no product of full length is ever formed.
    """
    d = degree(m)
    if d < 0:
        raise ZeroDivisionError("division by zero polynomial")
    if a >> d:
        a = poly_mod(a, m)
    top = 1 << d
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= m
    return r


def poly_powmod(a: int, k: int, m: int) -> int:
    """a^k modulo m by square and multiply, k >= 0."""
    if k < 0:
        raise ValueError("negative exponent")
    r = poly_mod(1, m)
    a = poly_mod(a, m)
    while k:
        if k & 1:
            r = poly_mulmod(r, a, m)
        a = poly_mulmod(a, a, m)
        k >>= 1
    return r


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m by trial division, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def is_irreducible(p: int) -> bool:
    """Exact irreducibility test for a polynomial of degree >= 1.

    Uses the x^(2^d) == x criterion together with gcd checks against the
    maximal proper subfields.
    """
    d = degree(p)
    if d < 1:
        raise ValueError("irreducibility is only defined for degree >= 1")
    if d == 1:
        return True
    if not p & 1:
        return False  # divisible by x
    # h_j = x^(2^j) mod p, advanced by repeated squaring
    h = X
    targets = {d // r for r in prime_factors(d)}
    for j in range(1, d + 1):
        h = poly_mulmod(h, h, p)
        if j in targets and poly_gcd(h ^ X, p) != 1:
            return False
    return h == X


def poly_order(p: int) -> int:
    """Multiplicative order of a root of the irreducible polynomial p.

    This is the least e with x^e == 1 (mod p); it divides 2^deg(p) - 1.
    Found by stripping prime factors of 2^n - 1 (trial division is fine
    at the intended scale of n <= 24 per factor).
    """
    if not is_irreducible(p):
        raise ValueError(f"{format_poly(p)} is reducible; order is defined for irreducible polynomials")
    if not p & 1:
        raise ValueError("x has no multiplicative order")
    return _order(p)


def _order(p: int) -> int:
    """poly_order for p already known irreducible, with constant term 1."""
    n = degree(p)
    e = (1 << n) - 1
    for q in prime_factors(e):
        while e % q == 0 and poly_powmod(X, e // q, p) == 1:
            e //= q
    return e


def is_primitive(p: int) -> bool:
    """True iff p is irreducible with a root of maximal order 2^deg - 1."""
    return is_irreducible(p) and p & 1 and _order(p) == (1 << degree(p)) - 1


def _eval_poly(g: int, beta: int, m: int) -> int:
    """g(beta) in F_2[x]/(m), by Horner's rule."""
    acc = 0
    for i in range(degree(g), -1, -1):
        acc = poly_mulmod(acc, beta, m) ^ (g >> i & 1)
    return poly_mod(acc, m)


def find_associated_primitive(g: int) -> int:
    """Primitive q of the same degree whose root alpha has alpha^t a root of g.

    Here t = (2^n - 1) / order(g).  A primitive polynomial is its own
    associate.  Candidates are scanned in ascending order of the
    coefficient bit pattern (constant term in bit 0), so the result is
    deterministic.
    """
    n = degree(g)
    e = poly_order(g)
    t = ((1 << n) - 1) // e
    if t == 1:
        return g
    for q in range((1 << n) | 1, 1 << (n + 1), 2):
        if not q.bit_count() & 1:
            continue  # an even weight makes x + 1 divide q
        # the cheap test first: for a primitive q, g(beta) == 0 makes g the
        # minimal polynomial of beta, as g is irreducible
        if _eval_poly(g, poly_powmod(X, t, q), q) == 0 and is_primitive(q):
            return q
    raise ArithmeticError(f"no associated primitive polynomial found for {format_poly(g)}")
