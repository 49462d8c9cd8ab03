"""Dynamical and topological invariants of Reeb flows on S^3 and lens spaces.

The package computes Conley-Zehnder indices of symplectic paths (by a
spectral and a geometric definition), rotation numbers, monodromy and
self-linking of rational unknots, lens-space classification arithmetic, and
numerically verifies the conditions under which a binding orbit bounds
disk-like global surfaces of section.
"""

from .bookkeeping import (
    BubblingTree,
    CurveWindingData,
    PeriodCatalog,
    TreeVertex,
    plane_data,
    sigma_gap,
    tree_from_json,
    tree_to_json,
    validate_tree,
    wind_pi_feasible,
    wind_pi_from_relation,
)
from .errors import (
    DegenerateInput,
    GridTooCoarse,
    IllConditioned,
    IntegrationFailure,
    PreconditionViolation,
    ReebkitError,
    ResolutionFailure,
    StructuralError,
)
from .geometry import (
    ContactSystem,
    LensParams,
    deck_action,
    dlambda_eval,
    flow,
    lambda0_eval,
    lambda_eval,
    lens_equivalent,
    reeb_vector,
    system_from_json,
    system_to_json,
)
from .index import (
    CzResult,
    SpectralData,
    SymmetricLoop,
    SymplecticPath,
    cz_geometric,
    cz_spectral,
    delta_phi,
    make_hyperbolic_path,
    make_rotation_path,
    mu_tilde,
    path_from_json,
    path_from_loop,
    path_to_json,
    prepend_loop,
    random_nondegenerate_path,
    random_symmetric_loop,
    rotation_number,
    rotation_number_with_error,
    spectral_report_json,
    spectrum,
    wind_relative,
    winding_interval,
)
from .knots import (
    KnotData,
    binding_knot_data,
    binding_sl_numeric,
    classification_tables,
    lens_binding_monodromy,
    lens_homeomorphic,
    lens_homotopy_equivalent,
    monodromy_from_winding,
    self_linking_from_winding,
    slope_intersection,
)
from .orbits import (
    ClosedOrbit,
    OrbitIndexResult,
    asymptotic_loop,
    catalog,
    disk_frame,
    index_table,
    linearized_path,
    orbit_index,
    orbit_to_json,
    principal_orbits,
)
from .section import (
    ReturnRecord,
    ReturnSamples,
    disk_area_bound,
    fixed_point,
    linking_with_binding,
    page_coords,
    page_point,
    quad_dlambda_area,
    return_map,
    verify_gss_conditions,
)

__version__ = "0.1.0"
