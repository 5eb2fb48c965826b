"""Exact arithmetic over Z[w] and arithmetic-descent tools for cube Kummer covers.

The package has four layers: exact arithmetic in Z[w] and Q(w)
(`eisenstein`), the finite rings Z[w]/(3^k) with exhaustive image sets
(`residues`), descent classification of specializations of t^3 = z
(`descent`), and on top of those the exhaustive lemma verifier (`verify`)
and the height-bounded point search (`search`).  The `eisdescent` console
script exposes all of it.
"""

from .descent import (
    INFINITY,
    DescentClassification,
    DescentKind,
    DescentWitness,
    InvalidWitnessError,
    NotDivisibleError,
    classify,
    descent_form,
    descent_form_preimage,
    galois_commutes,
    pi_divides_both_factors,
    reduce_by_pi,
    specialize,
)
from .eisenstein import (
    OMEGA,
    PI,
    UNITS,
    EisensteinInt,
    EisensteinRational,
    Factorization,
    canonical_associate,
    eisenstein_gcd,
    factor,
    is_cube,
    pi_valuation,
)
from .parsing import ParseError, parse_element
from .residues import (
    ResidueRing,
    ResidueSet,
    cube_values,
    descent_form_image,
    rhs_values,
)
from .search import SearchReport, enumerate_rationals, search
from .verify import (
    VerificationReport,
    minimal_modulus,
    verify_cube_closure,
    verify_no_solution,
)

__version__ = "0.1.0"

__all__ = [
    "EisensteinInt",
    "EisensteinRational",
    "Factorization",
    "OMEGA",
    "PI",
    "UNITS",
    "canonical_associate",
    "eisenstein_gcd",
    "factor",
    "is_cube",
    "pi_valuation",
    "ParseError",
    "parse_element",
    "ResidueRing",
    "ResidueSet",
    "cube_values",
    "descent_form_image",
    "rhs_values",
    "INFINITY",
    "DescentClassification",
    "DescentKind",
    "DescentWitness",
    "InvalidWitnessError",
    "NotDivisibleError",
    "classify",
    "descent_form",
    "descent_form_preimage",
    "galois_commutes",
    "pi_divides_both_factors",
    "reduce_by_pi",
    "specialize",
    "SearchReport",
    "enumerate_rationals",
    "search",
    "VerificationReport",
    "minimal_modulus",
    "verify_cube_closure",
    "verify_no_solution",
    "__version__",
]
