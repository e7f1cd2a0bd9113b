"""Monte Carlo integral geometry for convex bodies.

Intrinsic volumes (closed forms, quadrature, Steiner fits), invariant
measures on rigid motions and affine deformations, Crofton coefficients,
and the kinematic formula machinery built on top of them.
"""

from .bodies import (AffineMap, Ball, ConvexBody, Ellipsoid, HPolytope,
                     VPolytope, affine_image, body_from_dict, body_to_dict,
                     bounding_box, cube, difference_volumes, intersects,
                     load_body, membership, minkowski_sum_vpolytopes,
                     random_polytope, separating_hyperplane, support,
                     unit_ball)
from .estimation import EstimatorResult, merge_results, z_score
from .kinematic import (KinematicReport, LemmaCheck, LhsEstimate, build_report,
                        crofton_coefficient, lhs_kinematic, merge_lhs,
                        rhs_hadwiger_gl, separation_lemma_check)
from .sampling import (AffineFlat, GroupElement, flat_hits, flat_weight,
                       sample_affine_flat, sample_group_element,
                       translation_region)
from .symmetric import (expm_sym, sample_gaussian_sym, sample_haar_orthogonal,
                        sym_basis, sym_dim, sym_to_coords, coords_to_sym)
from .volumes import (QuadratureError, SteinerFit,
                      batch_ellipsoid_intrinsic_volumes,
                      closed_intrinsic_volumes, intrinsic_volume_ball,
                      intrinsic_volume_ellipsoid, kappa, steiner_fit,
                      volume_exact)
from .weyl import (ROUTES, EssFloorError, WeylEstimate, c_direct, c_weyl,
                   compute_constants, load_constants, run_constants,
                   save_constants, z_n)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
