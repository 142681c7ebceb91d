"""Correctness oracles that share no code with the cyclejoin package.

The checks here are written from the definitions, not from the
package's implementation:

- a de Bruijn sequence of order n is a cyclic bit string of length
  2^n whose n-bit windows are pairwise distinct;
- the LFSR with characteristic polynomial x^n + sum c_i x^i steps
  (s_0, ..., s_{n-1}) to (s_1, ..., s_n) with s_n = sum c_i s_i;
  conjugate states differ in s_0 only, and the adjacency multigraph
  has one edge per conjugate pair lying on two different cycles;
- zeta_G and zeta_Ghat are spanning-tree counts: any cofactor of the
  multigraph's Laplacian, and of the graph with multiplicities folded
  to one (matrix-tree theorem).

The brute-force cycle expansion and the modular determinant use numpy;
they run in the benchmark's tests, never inside a timed run.
"""

import re


def is_de_bruijn(line: str, n: int) -> bool:
    """True iff the cyclic bit string holds every n-bit window exactly once.

    Windows are read first bit most significant; the 2^n windows of a
    string of length 2^n cover every value exactly when none repeats.
    """
    size = 1 << n
    if len(line) != size or line.strip("01"):
        return False
    seen = bytearray(size)
    w = int(line[:n], 2)
    seen[w] = 1
    for c in line[n:] + line[: n - 1]:
        w = (w << 1 & size - 1) | (c == "1")
        seen[w] = 1
    return 0 not in seen


_COUNT_LINE = re.compile(r"^(psi|zeta_G|zeta_Ghat)\s*:\s*(\d+)")


def parse_count(text: str) -> dict[str, int]:
    """psi, zeta_G and zeta_Ghat from `cyclejoin count` text output."""
    out = {}
    for line in text.splitlines():
        m = _COUNT_LINE.match(line)
        if m:
            out[m.group(1)] = int(m.group(2))
    return out


_VERIFY_LINE = re.compile(r"^sequence (\d+): order (\d+): (ok|FAIL)$")


def parse_verify(text: str) -> list[tuple[int, int, str]]:
    """(index, order, status) per line of `cyclejoin verify` text output."""
    rows = []
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if not m:
            raise ValueError(f"unexpected verify output line {line!r}")
        rows.append((int(m.group(1)), int(m.group(2)), m.group(3)))
    return rows


def flip_bit(line: str, pos: int) -> str:
    return line[:pos] + ("1" if line[pos] == "0" else "0") + line[pos + 1 :]


# --- brute force over all 2^n states (numpy; tests only) -------------------


def _clmul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def characteristic_poly(factors: str) -> int:
    """Product of the comma-separated factors, coefficients highest degree first."""
    poly = 1
    for text in factors.split(","):
        poly = _clmul(poly, int(text, 2))
    return poly


def multiplicity_matrix(factors: str):
    """Cycle count psi and the psi x psi conjugate-pair multiplicity matrix.

    Expands every state: cycles are labelled by their least state via
    pointer doubling over the successor map.
    """
    import numpy as np

    poly = characteristic_poly(factors)
    n = poly.bit_length() - 1
    taps = poly ^ (1 << n)
    states = np.arange(1 << n, dtype=np.int64)
    par = states & taps
    for sh in (16, 8, 4, 2, 1):
        par ^= par >> sh
    succ = (states >> 1) | ((par & 1) << (n - 1))
    label, jump = states.copy(), succ
    for _ in range(n + 1):  # 2^(n+1) consecutive states cover any period
        label = np.minimum(label, label[jump])
        jump = jump[jump]
    _, cycle = np.unique(label, return_inverse=True)
    psi = int(cycle.max()) + 1
    a = cycle[0::2]  # s_0 = 0
    b = cycle[1::2]  # the conjugate, s_0 = 1
    keep = a != b
    mult = np.zeros((psi, psi), dtype=np.int64)
    np.add.at(mult, (a[keep], b[keep]), 1)
    return psi, mult + mult.T


def det_mod(matrix, p: int) -> int:
    """Determinant modulo a prime below 2^31 by Gaussian elimination."""
    import numpy as np

    a = np.array(matrix, dtype=np.int64) % p
    m = a.shape[0]
    det = 1
    for k in range(m):
        nz = np.nonzero(a[k:, k])[0]
        if nz.size == 0:
            return 0
        r = k + int(nz[0])
        if r != k:
            a[[k, r]] = a[[r, k]]
            det = -det
        pivot = int(a[k, k])
        det = det * pivot % p
        f = a[k + 1 :, k] * pow(pivot, p - 2, p) % p
        a[k + 1 :, k:] = (a[k + 1 :, k:] - f[:, None] * a[k, k:]) % p
    return det % p


def tree_counts_mod(factors: str, primes) -> tuple[int, dict[int, tuple[int, int]]]:
    """psi and, per prime, (zeta_G mod p, zeta_Ghat mod p) from brute force."""
    import numpy as np

    psi, mult = multiplicity_matrix(factors)
    out = {}
    for condensed in (False, True):
        w = (mult > 0).astype(np.int64) if condensed else mult
        lap = np.diag(w.sum(axis=1)) - w
        for p in primes:
            out.setdefault(p, []).append(det_mod(lap[1:, 1:], p))
    return psi, {p: tuple(v) for p, v in out.items()}
