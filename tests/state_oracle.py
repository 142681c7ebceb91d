"""Register-state helpers that only the tests use.

The package walks each factor's cycles once into an orbit table and
reads states from it; these helpers reach the same states the slow
way, by stepping a register or raising its companion matrix to a
power, and find a joint state's cycle by decomposing it through the
state basis.
"""

from math import lcm

from cyclejoin.cycles import CycleDescriptor, CycleSet, canonical_shifts
from cyclejoin.lfsr import Lfsr, StateBasis, _mat_pow, _vec_mat


def state_to_bits(v: int, n: int) -> tuple[int, ...]:
    return tuple(v >> i & 1 for i in range(n))


def advance(reg: Lfsr, state: int, k: int) -> int:
    """The k-th successor of a state (k >= 0).

    Small k just iterates; past 4n steps it is cheaper to raise the
    companion matrix to the k-th power.
    """
    if k < 0:
        raise ValueError("k must be nonnegative; reduce shifts modulo the period first")
    if k <= 4 * reg.n:
        for _ in range(k):
            state = reg.step(state)
        return state
    return _vec_mat(state, _mat_pow(reg.companion(), k))


def locate_state(v: int, basis: StateBasis, factors, cycles: CycleSet) -> int:
    """Index of the cycle containing the joint state v."""
    if v == 0:
        return cycles.zero_index
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
            v = reg.step(v)
        if labels[v] == count:
            count += 1
    return labels
