"""Pointwise G2 linear algebra: form calculus on R^7, irreducible
projections, torsion extraction, the five-block curvature decomposition,
and invariant-geometry engines that verify the identities tying them
together on Lie-group and warped-product examples."""

from .exterior_algebra import (
    AntisymArray,
    Form,
    check_contraction_identities,
    contract,
    form_inner,
    from_antisym,
    hodge,
    interior,
    standard_omega,
    standard_phi,
    standard_phi_dual,
    standard_psi_minus,
    standard_psi_plus,
    to_antisym,
    wedge,
)
from .g2_algebra import (
    MixedV14,
    lambda3,
    odot_bracket,
    project,
    projector_matrix,
    quad_A,
    quad_B,
    sigma_contract,
    split_v14,
    sym2_from_27,
    wedge3,
)
from .curvature import (
    CurvatureDecomposition,
    CurvatureTensor,
    bianchi_b,
    decompose,
    generalized_ricci,
    kn_product,
    phi_product,
    phi_ricci,
    random_algebraic_curvature,
    ric_W,
    ricci,
    scalar_curvature,
)
from .torsion import (
    IntrinsicTorsion,
    TorsionComponents,
    conformal_transform,
    extract_torsion,
    fg_type,
    intrinsic_from_torsion,
    recompose,
    scalar_from_torsion,
)
from .homogeneous import (
    LieAlgebraSpec,
    Report,
    analyze,
    builtin_examples,
    canonical_connection,
    geometry,
    invariant_d,
    invariant_delta,
    levi_civita,
    riemann,
    spec_from_coframe_d,
)
from .cohomo_one import (
    CohomSpec,
    Jet,
    RouteMismatch,
    WarpSpec,
    cohom_torsion,
    holonomy_residual,
    holonomy_triple,
    jet_var,
    ricW_vanishes,
    theta_family,
    type_sweep,
    warped_phi,
    warped_torsion,
)

__version__ = "0.1.0"
