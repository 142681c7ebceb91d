"""Binary de Bruijn sequences by cycle joining.

Builds order-n de Bruijn sequences from an LFSR whose characteristic
polynomial is a product of pairwise distinct irreducible polynomials
over GF(2), counts exactly how many such sequences exist (spanning
trees of the adjacency graph), and emits or samples any requested
subset of them.  The top level re-exports the entry points; everything
else lives in the submodules.
"""

from .gf2 import format_poly
from .lfsr import state_to_str
from .adjacency import best_count, int_log2
from .joining import feedback_function, join_cycles, random_spanning_tree, verify_de_bruijn
from .pipeline import FactoredLfsr

__version__ = "0.1.0"
