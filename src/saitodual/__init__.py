"""Exact-arithmetic toolkit for invertible polynomials: symmetry groups,
Burnside-ring-valued equivariant monodromy zeta functions, and the duality
transform relating a polynomial to its transpose."""

__version__ = "0.1.0"

from .burnside import (BurnsideElement, CyclotomicProduct,
                       burnside_from_cyclotomic, element_zeta, mark,
                       multiply, restrict, saito_dual)
from .enumeration import (BatchReport, atom_specs, build_polynomial,
                          canonical_matrix_key, chain_matrix, generate_corpus,
                          loop_matrix, run_batch, verify_polynomial)
from .errors import (CoefficientWarning, DegenerateError, DimensionError,
                     IndexBoundsError, NonCyclicError, OwnershipError,
                     PolynomialParseError, RankError, ResourceBoundError,
                     SaitoDualError, ShapeError, SingularMatrixError,
                     StructureError)
from .groups import (GroupElement, GroupPresentation, SubgroupKey,
                     dual_subgroup, enumerate_subgroups, full_subgroup,
                     geometric_roots, isotropy_subgroup, monodromy_element,
                     pairing, root_count, subgroup_generated_by,
                     subgroup_meet, symmetry_group, trivial_subgroup)
from .linalg import (IntMatrix, RationalVector, determinant,
                     hermite_normal_form, invariant_factors, lattice_basis,
                     lattice_solve, smith_normal_form)
from .polynomials import (Atom, AtomicDecomposition, InvertiblePolynomial,
                          WeightSystem, canonical_weights, decompose,
                          parse_polynomial)
from .zeta import (DualPair, SubsetTerm, VerificationReport, ZetaReport,
                   classical_zeta, classical_saito_dual, equivariant_zeta,
                   milnor_number, verify_root_duality, verify_zeta_duality)
