"""One-stop wiring of the whole construction for a factored register.

FactoredLfsr validates the factor list, then builds, in order: the
per-factor cycle representatives, the state basis, the cycle set, the
per-factor representation of the special state, and (lazily) the local
pair tables and the full adjacency graph.  Its register's cycle table
reads the cycles and locates states from the factors.  Everything
downstream (counting, generating, sampling) hangs off this object.
"""

from functools import partial, reduce

from .adjacency import (
    AdjacencyGraph,
    build_graph,
    build_local_tables,
    represent_special_state,
)
from .cycles import (
    _states_per_factor,
    cycle_locator,
    cycle_strings,
    enumerate_cycles,
    representative_state,
)
from .gf2 import degree, format_poly, is_irreducible, parse_poly, poly_mul
from .lfsr import Lfsr, StateBasis
from .joining import greedy_connected_subgraph

__all__ = ["FactoredLfsr", "parse_factors"]


def parse_factors(texts) -> list[int]:
    """Factor polynomials from "11,111,11111" or from a list of such strings."""
    if isinstance(texts, str):
        texts = [t for t in texts.split(",") if t.strip()]
    return [parse_poly(t) for t in texts]


def _cycle_table(cycles, factors, basis):
    """What a factored register's cycle table is given: every cycle's string and the locator."""
    return cycle_strings(cycles, factors), cycle_locator(cycles, factors, basis)


class FactoredLfsr:
    """An LFSR given as a product of distinct irreducible factors.

    The factor order is kept as given; it fixes cycle numbering and
    therefore every index-addressed output.
    """

    def __init__(self, factor_polys):
        polys = list(factor_polys)
        if not polys:
            raise ValueError("at least one factor is required")
        for p in polys:
            if degree(p) < 1:
                raise ValueError(f"factor {format_poly(p)} is constant; factors must have degree >= 1")
            if not p & 1:
                raise ValueError(
                    f"factor {format_poly(p)} is divisible by x; the register would be singular"
                )
            if not is_irreducible(p):
                raise ValueError(f"factor {format_poly(p)} is reducible; supply irreducible factors")
        seen = set()
        for p in polys:
            if p in seen:
                raise ValueError(
                    f"repeated factor {format_poly(p)}: repeated irreducible factors make the "
                    "cycle structure disproportionately expensive and are not supported; "
                    "supply pairwise distinct factors"
                )
            seen.add(p)
        n = sum(degree(p) for p in polys)
        if n < 2:
            raise ValueError("total degree must be at least 2")
        self.factor_polys = polys
        self.n = n
        self.poly = reduce(poly_mul, polys, 1)
        self.factors = [_states_per_factor(p) for p in polys]  # each checked above
        self.basis = StateBasis(polys)
        self.cycles = enumerate_cycles(self.factors)
        # the partial holds the cycles, factors and basis, not self, so
        # the register and this object form no reference cycle
        self.lfsr = Lfsr(self.poly, partial(_cycle_table, self.cycles, self.factors, self.basis))
        self.special = represent_special_state(self.basis, self.factors)
        self.cycles.special_index = self.cycles.index_of(self.special.descriptor)
        self._tables = None
        self._graph = None

    @classmethod
    def from_strings(cls, texts) -> "FactoredLfsr":
        return cls(parse_factors(texts))

    @property
    def psi(self) -> int:
        return len(self.cycles)

    @property
    def tables(self):
        if self._tables is None:
            self._tables = build_local_tables(self.factors, self.special)
        return self._tables

    def graph(self) -> AdjacencyGraph:
        if self._graph is None:
            self._graph = build_graph(
                self.cycles, self.tables, self.factors, self.basis, self.special
            )
        return self._graph

    def greedy_tree(self) -> AdjacencyGraph:
        """A spanning structure without building the full graph.

        Its pairs' positions go to the register's cycle table, so a join
        of them walks no state.
        """
        graph = greedy_connected_subgraph(
            self.cycles, self.tables, self.factors, self.basis, self.special
        )
        self.lfsr.cycle_table().keep_pairs(graph.located)
        return graph

    def representative(self, index: int) -> int:
        return representative_state(self.cycles[index], self.basis, self.factors)

    def __repr__(self):
        facs = ", ".join(format_poly(p) for p in self.factor_polys)
        return f"FactoredLfsr([{facs}], n={self.n})"
