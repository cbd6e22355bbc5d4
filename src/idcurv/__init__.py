"""Curvature and Ricci flow for inversive distance circle packings.

Closed triangulated surfaces carry a circle packing metric: one radius per
vertex, one inversive distance per edge, realized in Euclidean or hyperbolic
background geometry. This package computes the induced combinatorial
curvatures, integrates the associated Ricci flows, and solves prescribed
curvature problems by Newton descent on the Ricci potential.
"""

from .curvature import (
    CurvatureField,
    CurvatureJacobian,
    angle_deficits,
    average_curvature,
    curvature_field,
    curvature_jacobian,
    gauss_bonnet_residual,
    laplacian_spectrum,
)
from .errors import (
    AdmissibilityError,
    ConditioningError,
    DomainError,
    IntegrationError,
    MeshFormatError,
    QuadratureError,
    SolverError,
    TopologyError,
    WeightError,
)
from .flows import (
    EventKind,
    FlowEvent,
    FlowSpec,
    FlowKind,
    FlowTrace,
    flow_rhs,
    run_flow,
)
from .geometry import (
    PackingMetric,
    admissible,
    corner_angles,
    edge_length,
    edge_lengths,
    face_lengths,
    r_of_u,
    s_of_r,
    total_area,
    triangle_slack,
    u_of_r,
)
from .potential import (
    newton_solve,
    potential_gradient,
    potential_value,
)
from .surface import (
    Geometry,
    WeightedTriangulation,
    WeightRegime,
    WeightReport,
    connected_sum,
    csaszar_torus,
    euler_characteristic,
    grid_torus,
    load_radii,
    load_surface,
    load_target,
    save_radii,
    surface_regime,
    tetrahedron,
    validate_weights,
)
from .surface import CSASZAR_FACES, TETRA_FACES
from .tetra import (
    TetraFamily,
    SecondRoot,
    X_SUP,
    curvature_residual,
    f_curve,
    find_second_root,
    write_f_curve,
)

__version__ = "0.1.0"
