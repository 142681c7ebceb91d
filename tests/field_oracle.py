"""Field tables and cyclotomic numbers, kept for the tests as an oracle.

The package builds every local pair table from a factor's orbit table,
so these GF(2^n) exp/log/Zech tables share no code with it: tests use
them to check local-table sizes against cyclotomic numbers and the
primitive-factor tables against the shift-and-add property.

``poly_order`` and ``find_associated_primitive`` are not oracles: they
are checked entry points to gf2's order and associated-primitive
search, which the package calls only on factors it has already
checked, so that the tests can call them on any polynomial.
"""

from dataclasses import dataclass

from cyclejoin.gf2 import _associated_primitive, _order, format_poly, is_irreducible


def poly_order(p: int) -> int:
    """Multiplicative order of a root of the irreducible polynomial p."""
    if not is_irreducible(p):
        raise ValueError(f"{format_poly(p)} is reducible; order is defined for irreducible polynomials")
    if not p & 1:
        raise ValueError("x has no multiplicative order")
    return _order(p)


def find_associated_primitive(g: int) -> int:
    """Primitive q of the same degree whose root alpha has alpha^t a root of g."""
    return _associated_primitive(g, poly_order(g))


@dataclass(frozen=True)
class CyclotomicParams:
    """Order e of an irreducible polynomial and the index t = (2^n - 1) / e."""

    e: int
    t: int

    def __post_init__(self):
        m = self.e * self.t
        if self.e < 1 or self.t < 1 or m & (m + 1):
            raise ValueError("e * t must equal 2^n - 1")

    @classmethod
    def for_factor(cls, deg: int, order: int) -> "CyclotomicParams":
        return cls(order, ((1 << deg) - 1) // order)


class FieldContext:
    """Exp/log/Zech tables for GF(2^n) over a primitive modulus.

    Elements are bit vectors of length n read as polynomials modulo the
    modulus.  With alpha the class of x, ``exp[l]`` is alpha^l,
    ``log[v]`` its inverse, and ``zech[l]`` the Zech logarithm: the
    exponent with alpha^zech[l] = alpha^l + 1.  Since alpha^0 + 1 = 0
    has no logarithm, zech[0] is None (the "infinity" sentinel).

    Construction costs O(2^n) time and memory and is done once; after
    that the object is immutable and safe to share between threads.
    """

    def __init__(self, modulus: int):
        n = modulus.bit_length() - 1
        if n < 1 or not modulus & 1:
            raise ValueError("modulus must have degree >= 1 and constant term 1")
        e = (1 << n) - 1
        exp = []
        log: dict[int, int] = {}
        cur = 1
        for k in range(e):
            if cur in log:
                raise ValueError(f"{modulus:b} is not primitive")
            exp.append(cur)
            log[cur] = k
            cur <<= 1
            if cur >> n & 1:
                cur ^= modulus
        if cur != 1:
            raise ValueError(f"{modulus:b} is not primitive")
        self.modulus = modulus
        self.n = n
        self.e = e
        self.exp = exp
        self.log = log
        self.zech = [None] + [log[exp[l] ^ 1] for l in range(1, e)]

    def zech_log(self, l: int):
        """Zech logarithm of l taken modulo 2^n - 1; None for l == 0."""
        return self.zech[l % self.e]

    def __repr__(self):
        return f"FieldContext(GF(2^{self.n}) mod {self.modulus:b})"


def cyclotomic_number(i: int, j: int, params: CyclotomicParams, ctx: FieldContext) -> int:
    """The cyclotomic number (i, j)_t over ctx's field.

    Counts elements xi of the coset C_i = alpha^i <alpha^t> whose
    successor xi + 1 lies in C_j.  Membership of xi + 1 is read off the
    Zech table: xi = alpha^l puts xi + 1 in class zech(l) mod t.
    """
    e, t = params.e, params.t
    if e * t != ctx.e:
        raise ValueError("params do not match the field size")
    i %= t
    j %= t
    count = 0
    for s in range(e):
        tau = ctx.zech[(i + s * t) % ctx.e]
        if tau is not None and tau % t == j:
            count += 1
    return count
