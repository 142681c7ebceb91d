"""Register-state helpers that only the tests use.

The package cuts each factor's orbit table from one m-sequence of its
associated primitive and reads states from it; these helpers reach
the same states the slow way, by stepping a register or raising its
companion matrix to a power, and find a joint state's cycle by
decomposing it through the state basis.  ``merge_congruence`` is the textbook CRT merge that the
package's shift rule (``cycles.shift_levels``) is checked against.
``frobenius`` steps the register to find the automorphism
Φ = g(T)∘D that the package computes from polynomials.
"""

from math import gcd, lcm

from cyclejoin.cycles import CycleDescriptor, CycleSet, canonical_shifts
from cyclejoin.lfsr import Lfsr, StateBasis, _vec_mat


def state_to_bits(v: int, n: int) -> tuple[int, ...]:
    return tuple(v >> i & 1 for i in range(n))


def step(reg: Lfsr, state: int) -> int:
    """The successor of a state: the parity of the tapped bits enters at the top."""
    feedback = (state & reg.poly & ~(1 << reg.n)).bit_count() & 1
    return (state >> 1) | feedback << (reg.n - 1)


def companion(reg: Lfsr) -> list[int]:
    """Companion matrix of the register's characteristic polynomial (row masks).

    It acts on states by right multiplication: step(v) == v A.
    """
    n = reg.n
    rows = [(reg.poly >> i & 1) << (n - 1) for i in range(n)]
    for i in range(1, n):
        rows[i] |= 1 << (i - 1)
    return rows


def mat_mul(a: list[int], b: list[int]) -> list[int]:
    return [_vec_mat(row, b) for row in a]


def mat_pow(a: list[int], k: int) -> list[int]:
    r = [1 << i for i in range(len(a))]
    while k:
        if k & 1:
            r = mat_mul(r, a)
        a = mat_mul(a, a)
        k >>= 1
    return r


def advance(reg: Lfsr, state: int, k: int) -> int:
    """The k-th successor of a state (k >= 0).

    Small k just iterates; past 4n steps it is cheaper to raise the
    companion matrix to the k-th power.
    """
    if k < 0:
        raise ValueError("k must be nonnegative; reduce shifts modulo the period first")
    if k <= 4 * reg.n:
        for _ in range(k):
            state = step(reg, state)
        return state
    return _vec_mat(state, mat_pow(companion(reg), k))


def locate_state(v: int, basis: StateBasis, factors, cycles: CycleSet) -> int:
    """Index of the cycle containing the joint state v."""
    if v == 0:
        return 0  # the zero cycle is vertex 0
    flags, indices, shifts = [], [], []
    for blk, f in zip(basis.decompose(v), factors):
        if blk == 0:
            flags.append(0)
            indices.append(0)
            shifts.append(0)
        else:
            j, k = f.locate(blk)
            flags.append(1)
            indices.append(j)
            shifts.append(k)
    orders = [f.order for f in factors]
    canon = canonical_shifts(flags, shifts, orders)
    period = lcm(*(e for a, e in zip(flags, orders) if a))
    return cycles.index_of(CycleDescriptor(tuple(flags), tuple(indices), canon, period))


def cycle_labels(reg: Lfsr) -> list[int]:
    """Per state, a label shared exactly by the states of one cycle.

    Found by stepping the register from every unlabelled state until
    the walk comes back; no cycle enumeration from the package is used.
    """
    labels = [-1] * (1 << reg.n)
    count = 0
    for v in range(1 << reg.n):
        while labels[v] < 0:
            labels[v] = count
            v = step(reg, v)
        if labels[v] == count:
            count += 1
    return labels


def frobenius(reg: Lfsr) -> list[int]:
    """Φ = g(T)∘D on every state, from stepping the register.

    D(v) reads every other output of v's sequence, s_0, s_2, ...; g is
    the one combination of the states T^k D(S), k < n, that sums to
    S = (1, 0, ..., 0), found by trying every combination in Gray-code
    order.  Φ(e_j) is that combination of the T^k D(e_j), and Φ of any
    state the XOR of the Φ(e_j) over its bits.
    """
    n = reg.n

    def decimate(v):
        out = 0
        for k in range(n):
            out |= (v & 1) << k
            v = step(reg, step(reg, v))
        return out

    def shifts(v):
        out = []
        for _ in range(n):
            out.append(v)
            v = step(reg, v)
        return out

    targets = shifts(decimate(1))
    combo = acc = 0
    for m in range(1, 1 << n):
        k = (m & -m).bit_length() - 1
        combo ^= 1 << k
        acc ^= targets[k]
        if acc == 1:
            break
    else:
        raise AssertionError("no combination of the states T^k D(S) is S")
    units = []
    for j in range(n):
        image = 0
        for k, w in enumerate(shifts(decimate(1 << j))):
            if combo >> k & 1:
                image ^= w
        units.append(image)
    table = [0] * (1 << n)
    for v in range(1, 1 << n):
        low = v & -v
        table[v] = table[v ^ low] ^ units[low.bit_length() - 1]
    return table


def merge_congruence(a1: int, m1: int, a2: int, m2: int):
    """Combine r = a1 (mod m1) and r = a2 (mod m2); None if incompatible.

    Returns (a, lcm(m1, m2)) via Garner-style reconstruction, valid for
    arbitrary (not necessarily coprime) moduli.
    """
    g = gcd(m1, m2)
    if (a2 - a1) % g:
        return None
    m = m1 // g * m2
    k = (a2 - a1) // g * pow(m1 // g, -1, m2 // g) % (m2 // g)
    return (a1 + m1 * k) % m, m
