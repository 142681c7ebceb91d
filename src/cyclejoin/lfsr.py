"""LFSR state machinery: stepping, sequences, cycle tables, decimation, state bases.

A state of an n-stage register is an int whose bit i holds s_i, i.e.
the next output bit sits in bit 0.  All bit I/O follows this
least-index-first convention, matching the way states are written as
(s_i, ..., s_{i+n-1}).

Output bit k of a register with characteristic polynomial q is a
fixed linear form of its state: s_k = sum h_i s_i when
x^k = sum h_i x^i (mod q).  So conditions on bits far along the output
are read off powers of x modulo q, with no matrix powers.  Matrices
over GF(2) (the state basis) are stored as lists of row masks.
"""

import sys
from array import array
from bisect import bisect_right

from .gf2 import X, degree, format_poly, is_primitive, poly_mulmod, poly_powmod

__all__ = [
    "Lfsr",
    "CycleTable",
    "decimate",
    "solve_initial_state",
    "StateBasis",
    "bits_to_state",
    "state_to_str",
    "parse_state",
]


def bits_to_state(bits) -> int:
    """Pack an iterable of bits (s_0 first) into a state int."""
    v = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError("state bits must be 0 or 1")
        v |= b << i
    return v


def state_to_str(v: int, n: int) -> str:
    """Render a state as its bit string, s_0 first."""
    return "".join(str(v >> i & 1) for i in range(n))


def parse_state(text: str) -> int:
    """Parse a bit string written s_0 first (inverse of state_to_str)."""
    s = "".join(text.split())
    if not s or s.strip("01"):
        raise ValueError(f"cannot parse state {text!r}: expected a string of 0s and 1s")
    return bits_to_state(int(c) for c in s)


def _vec_mat(v: int, rows: list[int]) -> int:
    """Row vector times matrix over GF(2); both sides are bit masks."""
    r = 0
    while v:
        low = v & -v
        r ^= rows[low.bit_length() - 1]
        v ^= low
    return r


def _gf2_invert(rows: list[int], n: int) -> list[int]:
    """Invert an n x n bit matrix by Gauss-Jordan elimination."""
    aug = [rows[i] | 1 << (n + i) for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i] >> col & 1), None)
        if piv is None:
            raise ValueError("matrix is singular over GF(2)")
        aug[col], aug[piv] = aug[piv], aug[col]
        for i in range(n):
            if i != col and aug[i] >> col & 1:
                aug[i] ^= aug[col]
    return [aug[i] >> n for i in range(n)]


class Lfsr:
    """An n-stage linear feedback shift register.

    Defined by its characteristic polynomial f(x) = x^n + sum c_i x^i;
    the feedback computes the new bit as the parity of the tapped state
    bits c_i.  The constant term must be 1 (a nonsingular register), so
    every state lies on a cycle.
    """

    def __init__(self, poly: int):
        n = degree(poly)
        if n < 1:
            raise ValueError("characteristic polynomial must have degree >= 1")
        if not poly & 1:
            raise ValueError(
                f"{format_poly(poly)} has constant term 0: the register would be singular"
            )
        self.poly = poly
        self.n = n
        self.taps = poly ^ (1 << n)
        self._cycle_table = None

    def __repr__(self):
        return f"Lfsr({format_poly(self.poly)})"

    def generate(self, init, length: int) -> list[int]:
        """First `length` output bits from the given initial state."""
        state = init if isinstance(init, int) else bits_to_state(init)
        if state >> self.n:
            raise ValueError(f"initial state does not fit in {self.n} stages")
        out = []
        taps, n1 = self.taps, self.n - 1
        for _ in range(length):
            out.append(state & 1)
            state = (state >> 1) | ((state & taps).bit_count() & 1) << n1
        return out

    def cycle_table(self) -> "CycleTable":
        """Every cycle as a bit string, with a locator for states; built on first use."""
        if self._cycle_table is None:
            self._cycle_table = CycleTable(self)
        return self._cycle_table


_LOW_BIT = bytes(b"01"[b & 1] for b in range(256))


class CycleTable:
    """The cycles of a register as output bit strings, with a way back from a state.

    cycles[c] holds the outputs of cycle c read from its least state, so
    the state at position k of cycle c is the n-bit window of cycles[c]
    starting at k (read cyclically).  Cycles are numbered by their least
    state.  One walk over the 2^n states builds the table; a state is
    found again by stepping it to the nearest landmark, a state whose
    position was kept: every cycle's first state and every gap-th state
    of the walk.  A lookup takes at most gap steps and the landmarks
    number about 2^n / gap, so gap = 2^(n/4) keeps both small.
    """

    def __init__(self, reg: Lfsr):
        n, taps, top = reg.n, reg.taps, reg.n - 1
        size = 1 << n
        gap = 1 << n // 4
        seen = bytearray(size)
        order = array("I")  # the states in walk order
        starts = []
        start = 0
        while start >= 0:
            starts.append(len(order))
            s = start
            while True:
                seen[s] = 1
                order.append(s)
                s = (s >> 1) | ((s & taps).bit_count() & 1) << top
                if s == start:
                    break
            start = seen.find(0, start)
        starts.append(size)
        # a state's output bit is its lowest bit, which sits in the lowest byte
        low = 0 if sys.byteorder == "little" else order.itemsize - 1
        raw = memoryview(order).cast("B")[low :: order.itemsize]
        text = raw.tobytes().translate(_LOW_BIT).decode("ascii")
        self.n, self.taps = n, taps
        self.cycles = [text[a:b] for a, b in zip(starts, starts[1:])]
        self._starts = starts
        self._marks = dict(zip(order[::gap], range(0, size, gap)))
        self._marks.update((order[a], a) for a in starts[:-1])

    def locate(self, state: int) -> tuple[int, int]:
        """(c, k) such that `state` sits at position k of cycle c."""
        if state < 0 or state >> self.n:
            raise ValueError(f"state does not fit in {self.n} stages")
        marks, taps, top = self._marks, self.taps, self.n - 1
        steps = 0
        while state not in marks:
            state = (state >> 1) | ((state & taps).bit_count() & 1) << top
            steps += 1
        g = marks[state]
        c = bisect_right(self._starts, g) - 1
        return c, (g - self._starts[c] - steps) % len(self.cycles[c])


def decimate(seq, d: int, offset: int = 0, count: int | None = None) -> list[int]:
    """The d-decimation v_j = seq[offset + d*j].

    Yields every full sample available, or exactly `count` samples when
    requested (raising if the input is too short for that).
    """
    if d < 1 or offset < 0:
        raise ValueError("need d >= 1 and offset >= 0")
    n = len(seq)
    avail = 0 if offset >= n else (n - offset - 1) // d + 1
    if count is None:
        count = avail
    elif count > avail:
        raise ValueError(f"sequence too short: {count} samples requested, {avail} available")
    return [seq[offset + d * j] for j in range(count)]


def solve_initial_state(q: int, t: int) -> int:
    """Initial state making the t-decimation of q's m-sequence start (1, 0, ..., 0).

    q must be primitive of degree n, t a divisor of 2^n - 1.  Output
    bit jt of state s is sum s_i h_i, where x^(jt) = sum h_i x^i
    (mod q), so s solves the n linear conditions "that sum equals
    [j == 0]": s times the condition matrix is (1, 0, ..., 0), and s is
    row 0 of its inverse.  The matrix is singular, and no such state
    exists, when x^t lies in a proper subfield of GF(2)[x]/(q).
    """
    if not is_primitive(q):
        raise ValueError(f"{format_poly(q)} is not primitive")
    n = degree(q)
    if t < 1 or ((1 << n) - 1) % t:
        raise ValueError("t must divide 2^n - 1")
    step_t = poly_powmod(X, t, q)
    cond = [0] * n  # cond[i] bit j = coefficient of x^i in x^(jt) mod q
    acc = 1
    for j in range(n):
        for i in range(n):
            cond[i] |= (acc >> i & 1) << j
        acc = poly_mulmod(acc, step_t, q)
    try:
        return _gf2_invert(cond, n)[0]
    except ValueError:
        raise ValueError(f"x^{t} lies in a proper subfield modulo {format_poly(q)}") from None


class StateBasis:
    """The change of basis between joint states and per-factor states.

    Row j of the block for factor p_i is the length-n prefix of the
    p_i-register's output from the impulse state e_j.  Stacking the
    blocks gives an n x n matrix P of full rank, so
    v = (a_1, ..., a_s) P is a bijection between concatenated component
    states and states of the product register.  P commutes with the
    state operator, which is what makes per-factor bookkeeping valid.
    The matrices are fixed once built; the only later state is the
    per-factor image tables of slot_images, filled on first use.
    """

    def __init__(self, polys):
        polys = list(polys)
        self.polys = polys
        self.degrees = [degree(p) for p in polys]
        self.n = sum(self.degrees)
        self.offsets = []
        off = 0
        for d in self.degrees:
            self.offsets.append(off)
            off += d
        rows = []
        for p in polys:
            reg = Lfsr(p)
            for j in range(reg.n):
                rows.append(bits_to_state(reg.generate(1 << j, self.n)))
        self.rows = rows
        self._slot_images = {}
        try:
            self.inv_rows = _gf2_invert(rows, self.n)
        except ValueError:
            raise ValueError(
                "state basis is rank deficient: factors must be pairwise distinct irreducibles"
            ) from None

    def compose(self, blocks) -> int:
        """Map per-factor states (one int per factor) to a joint state."""
        a = 0
        for blk, off, d in zip(blocks, self.offsets, self.degrees, strict=True):
            if blk >> d:
                raise ValueError(f"component state {blk:#x} does not fit in {d} stages")
            a |= blk << off
        return _vec_mat(a, self.rows)

    def slot_images(self, i: int) -> list[int]:
        """images[x] = compose of the blocks that are x for factor i and 0 elsewhere.

        compose is linear, so a joint state is the XOR of its blocks'
        images.  One XOR per entry; 2^{n_i} entries, built on first use.
        """
        images = self._slot_images.get(i)
        if images is None:
            off, rows = self.offsets[i], self.rows
            images = [0] * (1 << self.degrees[i])
            for x in range(1, len(images)):
                low = x & -x
                images[x] = images[x ^ low] ^ rows[off + low.bit_length() - 1]
            self._slot_images[i] = images
        return images

    def decompose(self, v: int) -> list[int]:
        """Inverse of compose."""
        if v >> self.n:
            raise ValueError(f"state does not fit in {self.n} stages")
        a = _vec_mat(v, self.inv_rows)
        return [a >> off & ((1 << d) - 1) for off, d in zip(self.offsets, self.degrees)]
