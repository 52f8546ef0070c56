"""Exact arithmetic for knots that share lens spaces under Dehn surgery.

The package computes, with unbounded integers throughout, which lens spaces
arise from surgery on five knot families, decides lens-space homeomorphism,
evaluates the dual-knot hyperbolicity invariant phi, solves binary quadratic
form equations by the unit-orbit method, and searches exhaustively for
distinct knots yielding homeomorphic lens spaces by the same surgery.
"""

from .arith import is_perfect_square
from .bqf import (
    DivisibilityReport,
    FormSolution,
    QuadForm,
    UnitElement,
    apply_unit,
    divisibility_scan,
    fundamental_unit,
    generate_solutions,
    orbit_representatives,
)
from .dualknot import (
    BasicSequenceStats,
    DualKnotTriple,
    basic_stats,
    kplus_dual,
    kplus_is_hyperbolic,
)
from .knots import (
    InvalidKnot,
    KnotDescriptor,
    Lens,
    NotLens,
    ReducibleTwoLens,
    SurgerySlope,
    cable,
    distinct,
    genus,
    kplus,
    lens_surgery,
    tangle_hh,
    tangle_th,
    torus,
)
from .lens import (
    LensSpace,
    canonical_form,
    homeomorphic,
    make_lens,
    oriented_homeomorphic,
)
from .search import (
    CoincidenceRecord,
    FamilyReport,
    SearchConfig,
    VERIFY_FAMILIES,
    enumerate_surgeries,
    find_coincidences,
    verify_family,
    verify_no_nonintegral_pairs,
)
from .sequences import check_identity, fib, pair

__version__ = "0.1.0"
