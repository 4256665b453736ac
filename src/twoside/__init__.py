"""Two-sided multiplication key exchange schemes and the attacks that break them.

Two protocols share one blueprint: each party hides a public element between
two secrets drawn from commuting subspaces and publishes the product.  One
instantiation works with circulant matrices over the max/min digit-sum
semiring, the other with twisted dihedral group rings over small finite
fields.  In both cases the shared key is a linear function of public data,
so a passive adversary recovers it by solving one linear system; this
package implements the protocols, the solvers, and the attacks.
"""

from .digital import INF, W, digit_sum, order_key, w_add, w_leq, w_max_component, w_mul
from .errors import AttackError
from .gf import FieldCtx, gauss_solve, make_field_ctx
from .matrices import Circulant, SemiringMatrix, circulant_generators
from .semiring import Semiring
from .solver import LinearSystem, maximal_solution
from .twisted_ring import RingCtx, RingElement, make_ring_ctx

__version__ = "0.1.0"

__all__ = [
    "AttackError",
    "Circulant",
    "FieldCtx",
    "INF",
    "LinearSystem",
    "RingCtx",
    "RingElement",
    "Semiring",
    "SemiringMatrix",
    "W",
    "__version__",
    "circulant_generators",
    "digit_sum",
    "gauss_solve",
    "make_field_ctx",
    "make_ring_ctx",
    "maximal_solution",
    "order_key",
    "w_add",
    "w_leq",
    "w_max_component",
    "w_mul",
]
