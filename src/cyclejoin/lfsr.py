"""LFSR state machinery: stepping, sequences, cycle tables, state bases.

A state of an n-stage register is an int whose bit i holds s_i, i.e.
the next output bit sits in bit 0.  All bit I/O follows this
least-index-first convention, matching the way states are written as
(s_i, ..., s_{i+n-1}).

Output bit k of a register with characteristic polynomial q is a
fixed linear form of its state: s_k = sum h_i s_i when
x^k = sum h_i x^i (mod q).  So a cycle table extends a long cycle by
powers of x modulo q, with no matrix powers, and cuts its states from
the bit string as n-bit windows.  Matrices over GF(2) (the state
basis) are stored as lists of row masks.
"""

import sys
from array import array
from math import gcd

from .gf2 import X, degree, format_poly, poly_mod, poly_mulmod

__all__ = [
    "Lfsr",
    "CycleTable",
    "StateBasis",
    "cyclic_windows",
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

    `cycles`, when given, is a callable that returns every cycle of the
    register as its output bits (see CycleTable); the cycle table calls
    it once, on first use, instead of stepping the register.
    """

    def __init__(self, poly: int, cycles=None):
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
        self._cycles = cycles
        self._cycle_table = None

    def __repr__(self):
        return f"Lfsr({format_poly(self.poly)})"

    def generate(self, state: int, length: int) -> list[int]:
        """First `length` output bits from the initial state int (s_i in bit i)."""
        if state >> self.n:
            raise ValueError(f"initial state does not fit in {self.n} stages")
        out = []
        taps, n1 = self.taps, self.n - 1
        for _ in range(length):
            out.append(state & 1)
            state = (state >> 1) | ((state & taps).bit_count() & 1) << n1
        return out

    def cycle_table(self) -> "CycleTable":
        """The register's CycleTable, made on first use.

        It holds every cycle from the start when the register was given
        its cycles, and builds each cycle as it is located otherwise.
        """
        if self._cycle_table is None:
            given = None if self._cycles is None else self._cycles()
            self._cycle_table = CycleTable(self, given)
        return self._cycle_table


_LOW_BIT = bytes(b"01"[b & 1] for b in range(256))
_LOW = 0 if sys.byteorder == "little" else array("I").itemsize - 1
# _TOP_MASKS[r] keeps the low r bits of a byte
_TOP_MASKS = [bytes(x & (1 << r) - 1 for x in range(256)) for r in range(8)]
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BIG_ENDIAN = sys.byteorder == "big"

# Cycles up to this long are stepped; longer ones are extended (CycleTable).
_STEP_CAP = 224
# Given cycles are laid end to end for their landmarks about this many
# bits at a time, so the padded text of the whole register is never held.
_MARK_BATCH = 1 << 16


class CycleTable:
    """The cycles of a register as output bit strings, with a way back from a state.

    cycles[c] holds the outputs of cycle c read from one of its states,
    so the state at position k of cycle c is the n-bit window of
    cycles[c] starting at k (read cyclically).  Every gap-th position
    of a cycle is a landmark, a state kept with its cycle and position
    packed as one int c << n | k, so a state steps at most gap - 1 times
    to one.  gap = 2^(n/4) keeps both the walk and the landmarks, about
    2^n / gap over the whole register, small.

    A table made with `cycles`, every cycle of the register, holds them
    all from the start, in that order.  Their landmarks come from
    cyclic_windows calls over the cycles laid end to end, each padded
    to whole gaps with its own wrap bits; the windows that start in a
    pad are dropped.

    Otherwise no cycle is built before one of its states is located:
    cycles are numbered in the order they are found, and `cycles` grows
    in place.  A state that meets no landmark in gap steps lies on a
    new cycle.  It is stepped from its state, continuing locate's walk,
    as an array of states whose low bytes are its bits.  One still open
    after _STEP_CAP states is extended at C speed instead.  Over GF(2),
    squaring is linear, so r_t = x^(2^t) mod f comes from r_(t-1) by one
    squaring, and x^D - r_t with D = 2^t is a multiple of f: s_(k+D) is
    the sum of s_(k+j) over the terms x^j of r_t.  With m bits known and
    n <= D <= m, one pass of shifts and XORs on a packed integer adds the
    D - n + 1 bits after them, so the length about doubles each pass
    (while no such D exists, D = n and r is the taps, one bit a pass).
    The period is the first return of the first window (str.find), and
    the landmarks come from cyclic_windows.

    A cycle never moves once built, so locate_pairs keeps the positions
    of each conjugate pair it locates, as one int, for the table's
    lifetime: a join repeats no walk for a pair an earlier join used.
    That is one entry per distinct pair state asked for: at most 2^(n-1)
    when each pair is always named by the same state, as a graph's
    bundles name it.

    _STEP_CAP sits where the two paths cost the same.  Built both ways
    (CPython 3.11, x86-64), a cycle of 127 states took 41 us stepped and
    48 us extended, one of 217 states 69 us both ways, and one of 341
    states 110 us stepped and 61 us extended.
    """

    def __init__(self, reg: Lfsr, cycles=None):
        self.n, self.poly, self.taps = reg.n, reg.poly, reg.taps
        self._gap = 1 << reg.n // 4
        self.cycles = []
        self._marks = {}  # landmark state -> c << n | k
        self._walk = [0] * self._gap  # the states of locate's last walk
        self._pairs = {}  # pair state v -> the packed positions of v and v ^ 1
        self._squares = [poly_mod(X, reg.poly)]  # x^(2^t) mod f, grown on use
        if cycles is not None:
            self.cycles.extend(cycles)
            self._mark_given()

    def locate(self, state: int) -> tuple[int, int]:
        """(c, k) such that `state` sits at position k of cycle c; builds c if it is new."""
        if state < 0 or state >> self.n:
            raise ValueError(f"state does not fit in {self.n} stages")
        n, marks, taps, top, walk = self.n, self._marks, self.taps, self.n - 1, self._walk
        s = state
        for steps in range(self._gap):
            if s in marks:
                p = marks[s]
                c = p >> n
                return c, (p - (c << n) - steps) % len(self.cycles[c])
            walk[steps] = s
            s = (s >> 1) | ((s & taps).bit_count() & 1) << top
        return self._build(s), 0

    def locate_pairs(self, pairs) -> list[int]:
        """For each pair state v, where v and its conjugate v ^ 1 sit, as one int.

        With v at position i of cycle a and v ^ 1 at position j of cycle
        b, the int is (a << n | i) << 2n | b << n | j.  A pair is located
        on the first call that asks for it and remembered after, keyed by
        v itself, so a key shares the int that the caller's tree holds.
        """
        known, n = self._pairs, self.n
        out = []
        for v in pairs:
            p = known.get(v)
            if p is None:
                a, i = self.locate(v)
                b, j = self.locate(v ^ 1)
                p = known[v] = (a << n | i) << 2 * n | b << n | j
            out.append(p)
        return out

    def _build(self, s: int) -> int:
        """Build the cycle read from the walk's first state and return its number.

        s is where the walk stopped, gap steps past that state.
        """
        taps, top, gap, marks, walk = self.taps, self.n - 1, self._gap, self._marks, self._walk
        c = len(self.cycles)
        start = walk[0]
        if walk.count(start) > 1:  # the walk went round a cycle shorter than gap
            order = array("I", walk[: walk.index(start, 1)])
        else:
            order = array("I", walk)
            append = order.append
            for _ in range(_STEP_CAP - gap):
                if s == start:
                    break
                append(s)
                s = (s >> 1) | ((s & taps).bit_count() & 1) << top
            if s != start:
                text, states = self._extend(_low_bits(order) + format(s, f"0{self.n}b")[::-1])
                self.cycles.append(text)
                marks.update(zip(states, range(c << self.n, (c << self.n) + len(text), gap)))
                return c
        self.cycles.append(_low_bits(order))
        marks.update(zip(order[::gap], range(c << self.n, (c << self.n) + len(order), gap)))
        return c

    def _mark_given(self) -> None:
        """The landmarks of every cycle, read from batches of cycles laid end to end."""
        n, gap, cycles, marks = self.n, self._gap, self.cycles, self._marks
        end = 0
        while end < len(cycles):
            start, pieces, size = end, [], 0
            while end < len(cycles) and size < _MARK_BATCH:
                text = cycles[end]
                # whole gaps that hold the cycle and its n - 1 wrap bits
                padded = -(-(len(text) + n - 1) // gap) * gap
                pieces.append((text * -(-padded // len(text)))[:padded])
                size += padded
                end += 1
            windows = cyclic_windows("".join(pieces).encode("ascii"), n, gap)
            at = 0
            for c in range(start, end):
                length, first = len(cycles[c]), c << n
                kept = windows[at : at + -(-length // gap)]
                marks.update(zip(kept, range(first, first + length, gap)))
                at += -(-(length + n - 1) // gap)

    def _extend(self, text: str) -> tuple[str, array]:
        """The cycle that `text` begins, and its landmark states.

        `text` holds at least n + 1 bits, and none of its windows after
        the first is the first.
        """
        n, squares = self.n, self._squares
        first = text[:n]
        bits = int(text[::-1], 2)  # s_k in bit k
        m = len(text)
        seek = m - n + 1  # the first window not yet compared with the first one
        while True:
            t = m.bit_length() - 1
            if 1 << t < n:
                span, rest = n, self.taps  # x^n = taps (mod f): the plain recurrence
            else:
                span = 1 << t
                while len(squares) <= t:
                    squares.append(poly_mulmod(squares[-1], squares[-1], self.poly))
                rest = squares[t]
            window = bits >> (m - span)
            new = 0
            while rest:
                low = rest & -rest
                new ^= window >> (low.bit_length() - 1)
                rest ^= low
            count = span - n + 1
            new &= (1 << count) - 1
            bits |= new << m
            m += count
            text += format(new, f"0{count}b")[::-1]
            period = text.find(first, seek)
            if period >= 0:
                break
            seek = m - n + 1
        text = text[:period]
        return text, cyclic_windows(text.encode("ascii"), n, self._gap)


def _low_bits(order: array) -> str:
    """The output bits of a run of states: the low bit of each, in its lowest byte."""
    return order.tobytes()[_LOW :: order.itemsize].translate(_LOW_BIT).decode()


def cyclic_windows(bits: bytes, n: int, step: int = 1) -> array:
    """The values of the n-bit windows at every step-th position of a cyclic bit string.

    `bits` is ASCII 0s and 1s (b"0110..."), at least one, and the window
    at i has bits[(i + j) % len(bits)] as its bit j.  The windows at
    0, step, 2 step, ... below len(bits) come back in that order, so
    step 1 gives all len(bits) of them.  The string, with the first
    n - 1 bits of its cyclic reading appended so that no window wraps,
    is parsed once into a packed integer P, bit k of P holding bit k
    of the string.  Byte b of the window at i is then byte (i + 8b) // 8
    of P >> (i % 8): 8 bits, or the n % 8 bits left for the top byte,
    which a translate masks.  The positions of one residue of i mod 8
    lie a fixed number of bytes apart, so each residue takes one
    to_bytes copy of the shifted P, and each of its window bytes one
    strided bytes slice, which copies a strided row about twice as
    fast as a memoryview slice does.  Strided slice assignment
    interleaves the bytes into slots of 1, 2, 4 or 8 bytes, handed
    back as an array: iterating one is faster than a memoryview cast.
    """
    count = len(bits)
    full, rest = divmod(n, 8)
    nbytes = full + (rest > 0)
    width = next(s for s in _SLOT_FORMATS if nbytes <= s)
    # a string shorter than n - 1 bits goes round more than once
    head = (bits * -(-(n - 1) // count))[: n - 1]
    packed = int((bits + head)[::-1], 2)
    size = (count + n + 6) // 8  # bytes of P, which has count + n - 1 bits
    total = -(-count // step)
    # windows m and m + group start at the same residue mod 8, `stride`
    # bytes apart
    g = gcd(step, 8)
    group, stride = 8 // g, step // g
    slots = bytearray(width * total)
    for m in range(min(group, total)):
        first = m * step
        last = (m + (total - 1 - m) // group * group) * step
        row = (packed >> first % 8).to_bytes(size, "little")
        for b in range(nbytes):
            cut = row[first // 8 + b : last // 8 + b + 1 : stride]
            if b == full:
                cut = cut.translate(_TOP_MASKS[rest])
            # byte b is the b-th least significant of its slot in native order
            slot = width - 1 - b if _BIG_ENDIAN else b
            slots[m * width + slot :: width * group] = cut
    return array(_SLOT_FORMATS[width], slots)


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
