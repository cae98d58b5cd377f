"""Local system cohomology of complexified real line arrangements.

Chambers of an exact-rational arrangement carry a cochain complex whose
cohomology is that of the complement with rank-one coefficients; when the
infinity monodromy is nontrivial the first cohomology also falls out of a
small kernel computation on resonant bands.  The charvar module scans
character tori for jump loci and ships the deleted-B3 example.
"""

from .charvar import (
    BudgetExceededError,
    ComponentFamily,
    TorusPoint,
    deleted_b3,
    h1_at_point,
    torsion_scan,
)
from .geometry import (
    Arrangement,
    ArrangementError,
    Chamber,
    Chart,
    FlagError,
    IntersectionPoint,
    ProjArrangement,
    choose_flag,
    cone,
    move_to_infinity,
    parse_arrangement,
)
from .localsystem import LocalSystem, LocalSystemError, make_local_system
from .mincomplex import TwistedComplex, build_complex, cohomology_dims
from .resband import (
    Band,
    InvariantError,
    TheoremInapplicableError,
    bands,
    h1_via_bands,
    resonant_bands,
    sharp_pairs,
    vanishing_certificates,
)
from .scalars import (
    ComplexBackend,
    CyclotomicBackend,
    Matrix,
    cyclotomic_polynomial,
    matmul,
    rank,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
