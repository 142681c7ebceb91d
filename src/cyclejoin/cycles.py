"""Cycle structure of the sequences produced by a factored LFSR.

For f(x) = p_1(x) ... p_s(x) with pairwise distinct irreducible
factors, the 2^n sequences the register can produce split into cycles
(shift-equivalence classes).  Each factor p_i contributes the zero
cycle plus t_i nonzero cycles of period e_i, where e_i is the order of
p_i and t_i = (2^{n_i} - 1) / e_i.  A cycle of the product register is
described by which components are active, which component cycle each
active factor uses, and relative shifts between components; the shift
for component k is only free modulo gcd(e_k, lcm of the earlier active
periods).  ``shift_levels`` is the one home of that rule: the ranges
enumerated here, the canonical form of a shift tuple and the pair
search's merges (adjacency) all read their moduli from it.

Each factor's nonzero cycles, with their states in order, are cut
from one m-sequence of its associated primitive (``states_per_factor``).
Every cycle of the product register gets one representative state,
assembled from shifted per-factor states through the StateBasis, and
its output bits read from that state, the XOR of the shifted factor
cycles' bits (``cycle_strings``), which the register's cycle table
holds.
"""

import itertools
from dataclasses import dataclass, field
from math import gcd, prod

from .gf2 import _order, degree, find_associated_primitive, format_poly, is_irreducible
from .lfsr import _LOW_BIT, Lfsr, StateBasis, cyclic_windows

__all__ = [
    "FactorData",
    "states_per_factor",
    "CycleDescriptor",
    "CycleSet",
    "enumerate_cycles",
    "representative_state",
    "cycle_strings",
    "shift_levels",
    "canonical_shifts",
]


@dataclass
class FactorData:
    """One irreducible factor with a state on each of its nonzero cycles.

    ``states[j]`` is the representative of the j-th nonzero cycle; the
    zero cycle is implicit and is addressed by index ``t`` where pair
    sets need it.  The representatives are anchored by decimation of
    the associated primitive's m-sequence, which ties cycle j to the
    j-th cyclotomic class.  Each cycle's output bits (the decimations),
    the orbit table and its inverse are cut from that m-sequence once,
    by states_per_factor, and only read here.
    """

    poly: int
    degree: int
    order: int
    t: int
    states: tuple[int, ...]
    assoc_primitive: int
    _orbits: tuple[list[int], ...] = field(repr=False, compare=False)
    _where: list[int] = field(repr=False, compare=False)
    _bits: tuple[str, ...] = field(repr=False, compare=False)

    def orbit(self, j: int) -> list[int]:
        """The states of cycle j in order: ``orbit(j)[k] == T^k states[j]``."""
        return self._orbits[j]

    def bits(self, j: int) -> str:
        """The output bits of cycle j from states[j], s_0 first; its windows are orbit(j)."""
        return self._bits[j]

    def positions(self) -> list[int]:
        """The orbit table's inverse: entry x is j*order + k where x = T^k states[j].

        Entry 0, the zero state, is -1.
        """
        return self._where

    def locate(self, state: int) -> tuple[int, int]:
        """Return (j, k) with state = T^k states[j]."""
        if state == 0:
            raise ValueError("the zero state lies on the zero cycle")
        if state >> self.degree:
            raise ValueError(f"state {state:#x} does not fit in {self.degree} stages")
        return divmod(self._where[state], self.order)


def states_per_factor(p: int) -> FactorData:
    """A representative state for every nonzero cycle of one factor, and their orbits.

    Everything is cut from one string: the m-sequence of the
    associated primitive q (p itself when p is primitive), read from
    (1, 0, ..., 0).  Started at position i, its t-decimations at
    offsets 0..t-1 are the t nonzero cycles of p, each read in full;
    i is the one start whose decimation at offset 0 opens with
    (1, 0, ..., 0), found by searching each decimation for that window.
    A cycle's n-bit windows are its states in order: one cyclic_windows
    call reads them all, from the t decimations laid end to end, each
    followed by its own first n - 1 bits so that no window spans two.
    """
    if not is_irreducible(p):
        raise ValueError(f"factor {format_poly(p)} is reducible")
    if not p & 1:
        raise ValueError("factor x is not allowed: the register would be singular")
    n = degree(p)
    e = _order(p)
    size = (1 << n) - 1
    t = size // e
    q = p if t == 1 else find_associated_primitive(p)
    table = Lfsr(q).cycle_table()
    seq = table.cycles[table.locate(1)[0]]
    del table  # its landmarks would otherwise add to the peak of the orbit table below
    if len(seq) != size:
        raise AssertionError(f"{format_poly(q)} is not primitive: its cycle has {len(seq)} states")
    impulse = "1" + "0" * (n - 1)
    for r in range(t):
        d = seq[r::t]
        k = (d + d[: n - 1]).find(impulse)
        if k >= 0:
            break
    else:
        raise AssertionError(f"no decimation of {format_poly(q)}'s m-sequence meets {impulse}")
    i = r + t * k
    seq = seq[i:] + seq[:i]
    # cycle j's states open the j-th span, its decimation and that
    # decimation's first n - 1 bits
    decimations = tuple(seq[j::t] for j in range(t))
    span = e + n - 1
    windows = cyclic_windows("".join(d + d[: n - 1] for d in decimations).encode("ascii"), n)
    orbits = [windows[j * span : j * span + e].tolist() for j in range(t)]
    del d, seq, windows  # none of them adds to the peak of the inverse below
    where = [-1] * (size + 1)
    for j, orbit in enumerate(orbits):
        for pos, x in enumerate(orbit, j * e):
            where[x] = pos
    if where.count(-1) != 1:
        raise AssertionError(f"the orbits of {format_poly(p)} do not cover distinct cycles")
    return FactorData(
        poly=p,
        degree=n,
        order=e,
        t=t,
        states=tuple(orbit[0] for orbit in orbits),
        assoc_primitive=q,
        _orbits=tuple(orbits),
        _where=where,
        _bits=decimations,
    )


@dataclass(frozen=True)
class CycleDescriptor:
    """One cycle: active-component flags, component cycle indices, shifts.

    ``indices[i]`` and ``shifts[i]`` are 0 whenever ``flags[i]`` is 0.
    Shifts are canonical: the first active component has shift 0 and
    component k is reduced modulo gcd(e_k, lcm of earlier periods).
    The period is the lcm of the active orders (1 when nothing is
    active, and also 1 for a lone x+1 component).
    """

    flags: tuple[int, ...]
    indices: tuple[int, ...]
    shifts: tuple[int, ...]
    period: int

    def describe(self) -> str:
        """Symbolic form like "u1[0] + L2.u3[1]" (uI[j] = cycle j of factor I)."""
        if not any(self.flags):
            return "[0]"
        terms = []
        for i, a in enumerate(self.flags):
            if not a:
                continue
            shift = f"L{self.shifts[i]}." if self.shifts[i] else ""
            terms.append(f"{shift}u{i + 1}[{self.indices[i]}]")
        return "[" + " + ".join(terms) + "]"


@dataclass
class CycleSet:
    """All cycles of the factored register, in a fixed order; the zero cycle is vertex 0."""

    cycles: tuple[CycleDescriptor, ...]
    special_index: int | None = None

    def __len__(self):
        return len(self.cycles)

    def __iter__(self):
        return iter(self.cycles)

    def __getitem__(self, i):
        return self.cycles[i]

    def index_of(self, c: CycleDescriptor) -> int:
        return self.cycles.index(c)


def shift_levels(flags, orders) -> list[tuple[int, int, int, int]]:
    """Per component, the shift rule's constants (g, m, q, inv).

    m is the lcm of the active periods before the component and p its
    own period (1 if inactive); its shift ranges over g = gcd(p, m),
    q = p // g and inv = (m // g)^-1 mod q.  Merging r (mod m) with
    x (mod p), given x = r (mod g), is r + m * ((x - r) // g * inv % q),
    already reduced modulo lcm(m, p) = m * q, so prod(q) is the period.
    """
    out = []
    m = 1
    for a, e in zip(flags, orders, strict=True):
        p = e if a else 1
        g = gcd(p, m)
        q = p // g
        out.append((g, m, q, pow(m // g, -1, q)))
        m *= q
    return out


def canonical_shifts(flags, shifts, orders) -> tuple[int, ...]:
    """Reduce raw per-component shifts to the canonical descriptor form.

    Two shift tuples name the same cycle iff they differ by one global
    shift r, taken modulo each active period.  Greedily pinning each
    component to the smallest reachable residue, while accumulating the
    constraint on r by CRT, lands exactly in the ranges enumerated by
    the cycle structure.  An inactive component has g = q = 1, so it
    gets shift 0 and leaves the constraint alone.
    """
    rho = 0
    out = []
    for sh, (g, m, q, inv) in zip(shifts, shift_levels(flags, orders), strict=True):
        l = (sh + rho) % g
        out.append(l)
        rho += m * ((l - sh - rho) // g * inv % q)
    return tuple(out)


def _flag_patterns(s: int):
    """Active-component patterns in the fixed report order.

    Counts with the first component as the top bit and the remaining
    components below it in reverse, so for s = 3 the patterns run
    000, 010, 001, 011, 100, 110, 101, 111.
    """
    for c in range(1 << s):
        flags = [c >> (s - 1) & 1]
        flags += [c >> (i - 2) & 1 for i in range(2, s + 1)]
        yield tuple(flags)


def enumerate_cycles(factors) -> CycleSet:
    """Every cycle of the product register, one descriptor each.

    Nesting order: active-component patterns outermost (all-zero
    first), then component cycle indices (first factor slowest), then
    shifts.  The order fixes the vertex numbering used by reports and
    by all spanning-tree indexing downstream.
    """
    factors = list(factors)
    s = len(factors)
    n = sum(f.degree for f in factors)
    orders = [f.order for f in factors]
    descs = []
    for flags in _flag_patterns(s):
        levels = shift_levels(flags, orders)
        period = prod(q for _, _, q, _ in levels)
        idx_ranges = [range(f.t) if a else range(1) for f, a in zip(factors, flags)]
        shift_ranges = [range(g) for g, _, _, _ in levels]
        for combo in itertools.product(*idx_ranges, *shift_ranges):
            descs.append(CycleDescriptor(flags, combo[:s], combo[s:], period))
    total = sum(c.period for c in descs)
    if total != 1 << n:
        raise AssertionError(f"cycle periods sum to {total}, expected 2^{n}")
    return CycleSet(tuple(descs))


def representative_state(c: CycleDescriptor, basis: StateBasis, factors) -> int:
    """A state on the described cycle: shifted component states through the basis."""
    blocks = [
        f.orbit(j)[l] if a else 0
        for a, j, l, f in zip(c.flags, c.indices, c.shifts, factors, strict=True)
    ]
    return basis.compose(blocks)


def cycle_strings(cycles: CycleSet, factors) -> list[str]:
    """Every cycle's output bits, s_0 first, read from its representative_state.

    The outputs of a sum of component states are the XOR of the
    components' outputs (compose is linear and commutes with the
    shift), and a component at shift l of factor cycle j outputs that
    cycle's bits rotated by l.  So each cycle is a few C-level string
    and int operations on the factors' cycle bits, each repeated to the
    cycle's period, with no state stepped.
    """
    out = []
    for c in cycles:
        period = c.period
        # the XOR of ASCII 0s and 1s, read as ints, keeps each bit's parity
        # in its byte's low bit
        x = 0
        for a, j, l, f in zip(c.flags, c.indices, c.shifts, factors, strict=True):
            if a:
                u = f.bits(j)
                x ^= int.from_bytes(((u[l:] + u[:l]) * (period // f.order)).encode(), "little")
        out.append(x.to_bytes(period, "little").translate(_LOW_BIT).decode())
    return out
