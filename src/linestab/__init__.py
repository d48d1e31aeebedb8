"""Line transversals to disjoint balls.

Direction sextics of ball triples, Hessian flex certificates, direction-cone
feasibility and convexity, geometric permutations, and exact rational
verification of the underlying algebraic identities.
"""

from .geom import (
    Scene,
    SceneError,
    SolverError,
    random_disjoint_scene,
    random_scene_with_transversal,
)
from .sextic import (
    DirectionPoly,
    Triple,
    eval_sigma,
    tangent_lines_for_direction,
    trace_curves,
)
from .flexprobe import (
    CanonicalCoords,
    LiftedConfig,
    certify_flex_free,
    gram_from_barycentrics,
    lifted_hessian_decomposition,
    q_invariant,
    star_h_canonical,
)
from .cone import (
    ConeSampleSet,
    classify_boundary_direction,
    cone_convexity_check,
    count_components,
    enumerate_geometric_permutations,
    evaluate_directions,
)
from .polyid import (
    IdentitySpec,
    identity_catalog,
    schwartz_zippel_suite,
)

__version__ = "0.1.0"
