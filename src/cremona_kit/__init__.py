"""Exact arithmetic for plane birational geometry.

The package mechanises three intertwined computations on the projective
plane, all over exact rational arithmetic:

* adjoint chains of numerical linear systems attached to plane curves
  with ordinary singularities, ending in a rational or elliptic terminal
  system;
* birational maps as coprime homogeneous triples, with composition,
  canonical normal forms, and a divisibility certificate that a map fixes
  a given curve pointwise;
* the commutative matrix group [[a1, h a2], [a2, a1]] over Q(x) for
  squarefree h, its projective order classification, and the induced
  plane maps fixing the hyperelliptic curve y^2 = h(x).
"""

__version__ = "0.1.0"

from .curve_model import (
    PlaneCurveModel,
    PointSpec,
    SingularityData,
    curve_from_mults,
    genus,
    multiplicity_at,
    validate,
    validate_curve_data,
)
from .cremona_maps import (
    CremonaMap,
    compose,
    fixes_curve_pointwise,
    is_identity,
    make_H_element,
    make_linear_G,
    make_phi,
)
from .exact_algebra import (
    RatFunc,
    TriHomPoly,
    UniPoly,
    is_squarefree,
    tri_content_gcd,
    tri_divides,
    uni_gcd,
)
from .jonquieres import (
    JonqElement,
    PGL_INFINITE,
    hyperelliptic_curve_poly,
    invert,
    leminv_check,
    mul,
    to_cremona,
)
from .linear_systems import (
    ChainReport,
    ChainStep,
    Classification,
    LinSysData,
    adjoint_chain,
    adjoint_raw,
    adjoint_step,
    free_intersection,
    member_genus,
    pencil_decompose,
    quadratic_transform,
    remove_fixed_components,
    self_intersection,
    virtual_dim,
)
from .rational_pencils import (
    PencilType,
    check_rational_pencil,
    enumerate_pencil_types,
    sextic_free_intersection_bound,
)
