"""geodens: a computational calculus for distributional densities on cores.

States of complex degree alpha live on embedded submanifolds of R^n; the
package constructs them, restricts ambient densities, pairs states with test
densities, multiplies states over transverse intersections, and cross-checks
every geometric number against an independent Gaussian mollification oracle.
"""

from .density import AmbientDensity, restrict
from .errors import *  # noqa: F403  every exception type
from .exprlang import diff, evaluate, jacobian, parse, subst, to_source
from .fields import ExprField, FuncField, ScalarField, as_field
from .geometry import (
    Ambient,
    IntersectionResult,
    Submanifold,
    TransversalityReport,
    chart_invert,
    frames_at,
    frames_many,
    intersect,
    transversality_check,
)
from .linalg import (
    change_of_basis,
    complete_to_ambient,
    det_abs_pow,
    dual_normal_frame,
)
from .oracle import (
    ConvergenceReport,
    compare_inner,
    compare_pairing,
    converge_check,
    mollify,
    smooth_pair,
)
from .product import inner_product, product, product_at_point
from .quadrature import QuadratureOptions
from .scene import Scene, load_scene, scene_from_dict
from .states import (
    ConormalFamily,
    GeometricState,
    PairingResult,
    make_state,
    pair_with_test,
    recombine_conormal,
    zero_section_state,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
