"""Exact verification toolkit for quasi-Hopf algebras: the module category,
its centre, the canonical commutative algebra there, and the monoidal
equivalence between right modules over it and the original category."""

from .linalg import LegShape, LinAlgError, Matrix, SolveResult, cokernel, kron, rat, rat_str, solve
from .qha import (BUILTIN_NAMES, QuasiHopfAlgebra, TensorElement,
                  algebra_from_json, algebra_to_json, builtin, kappa_inverse,
                  kappa_lambda, verify_derived_identities)
from .report import Report, ReportItem, VerificationFailure
from .repcat import (HLinearMap, HModule, adjunction_report,
                     associator, associator_inv, eeps, eeta, end_over_regular,
                     hom_space, icomp, identity_map, in_map, inner_hom,
                     left_dual, regular_module, right_dual, snake_report,
                     tensor, unit_module)
from .center import (CenterObject, braiding, center_hom_space, tensor_center,
                     validate_center)
from .algebra_a import (AlgebraA, HeartModule, build_A, diamond,
                        extract_center_structure, heart, heart_compose,
                        heart_on_morphism, hom_to_nat, nat_to_hom, pi_map,
                        s_t_isos)
from .mod_a import (AModule, algebra_as_amodule, amodule_hom_space, coinvariants,
                    coinvariants_monoidal, coinvariants_on_morphism, counit_iso,
                    equivalence_report, free_amodule, heart_amodule,
                    left_action, tensor_over_A, unit_iso, validate_amodule)
from .dsl import Context, check, eval_expr, parse, print_expr

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
