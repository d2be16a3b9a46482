"""Exact symbolic engine for graded Lagrangian field theory.

Computes Euler-Lagrange expressions in jet coordinates, verifies Noether
identities, constructs the associated gauge symmetry and conserved
current, and splits the current into an on-shell-vanishing part plus a
superpotential, all over exact rational arithmetic.
"""

from .algebra import (DEFAULT_JET_CAP, EVEN, KIND_ANTIFIELD, KIND_FIELD,
                      KIND_GHOST, ODD, DeclarationError, EvaluationError,
                      FieldSymbol, GradedPoly, InternalError, JetVariable,
                      JetCapError, jet, multi_index, poly_from_data,
                      poly_to_data)
from .forms import (ContactDerivation, GeneralizedVectorField, MixedForm,
                    UnsupportedDerivation, contract, is_nilpotent,
                    lie_derivative, prolong)
from .variational import (BOUND_EXHAUSTED, EXACT, NOT_EXACT, ConsistencyError,
                          Current, EulerLagrange, ExactnessResult, Lagrangian,
                          Superpotential, check_lepage, euler_lagrange,
                          euler_lagrange_form, expand_witness,
                          first_variational_residual,
                          horizontal_antiderivative, is_variational_symmetry,
                          lepage_equivalent, noether_current,
                          prolonged_variation, symmetry_witness,
                          weak_conservation_witness)
from .gauge import (GaugeError, GaugeSymmetryResult, NoetherOperator,
                    adjoint, adjoint_table, antifield, antifield_number,
                    check_noether_identity, extended_lagrangian, ghost_for,
                    gauge_symmetry, koszul_tate, noether_operator_from_density,
                    recover_identity)
from .superpotential import (STRUCTURAL_TAGS, StructuralCheck,
                             SuperpotentialError, SuperpotentialSplit, extract,
                             structural_checks, verify_split)
from .model import (ElaboratedModel, ElaborationError, ModelSource,
                    ParseError, elaborate, load_model, parse,
                    print_elaborated)
from .render import form_text, poly_text

__version__ = "0.1.0"


def __getattr__(name):
    """``GrassmannAlgebra`` and ``GrassmannElement``, the tests' independent
    oracle, are loaded on first use: no command needs them."""
    if name in ("GrassmannAlgebra", "GrassmannElement"):
        from . import grassmann
        return getattr(grassmann, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
