"""Exact decisions for rational polytopes: hiding behind versus hiding inside.

A body K "hides behind" a cover L for dimension d when every d-dimensional
orthogonal shadow of L contains a translate of the matching shadow of K.
This package decides, with exact rational arithmetic throughout:

* translative containment (does some translate of K fit inside L?), with
  witness translations and Farkas certificates;
* d-reliability of a cover (does hiding behind always imply hiding inside?)
  via exhaustive simplicial-family search over facet normals;
* d-decomposability (is the body a direct Minkowski sum of at-most-d
  dimensional factors?) with exact factor extraction;
* explicit counterexample bodies that hide behind an unreliable cover
  without fitting inside it.

Verdicts are exact; only shadow-cover *sampling* is statistical, and every
report labels which kind it is.
"""

from .containment import (
    ContainmentVerdict,
    FarkasCertificate,
    ShadowCoverReport,
    SubspaceSampler,
    max_scale,
    product_containment,
    sampled_shadow_cover,
    shadow_fit,
    translate_fit,
)
from .counterexample import (
    BundleVerification,
    CounterexampleBundle,
    ReliableCoverError,
    build_S,
    build_counterexample,
    find_alpha,
    verify_bundle,
)
from .decomposability import (
    CrossCheckReport,
    DecompositionReport,
    cross_check_2iff2,
    extract_factors,
    is_decomposable,
    normal_components,
)
from .lp import Infeasible, LPProblem, Optimal, Unbounded, solve_lp
from .polytope import (
    Facet,
    Polytope,
    Subspace,
    apply_linear,
    direct_sum,
    direct_sum_assemble,
    embed,
    hull_from_vertices,
    is_centrally_symmetric,
    minkowski_sum,
    project,
    scale_polytope,
    support,
    translate,
    vector_area_check,
)
from .reliability import (
    DirectionSet,
    ReliabilityVerdict,
    SimplicialFamily,
    direction_set,
    enumerate_simplicial,
    facet_direction_set,
    is_reliable,
    is_simplicial,
    parallelotope_check,
)

__version__ = "0.1.0"


def backend_name() -> str:
    """Always "pure": the integer kernels have one pure-Python implementation.

    Kept because benchmark reports record the backend by this name.
    """
    return "pure"


__all__ = [
    "BundleVerification",
    "ContainmentVerdict",
    "CounterexampleBundle",
    "CrossCheckReport",
    "DecompositionReport",
    "DirectionSet",
    "Facet",
    "FarkasCertificate",
    "Infeasible",
    "LPProblem",
    "Optimal",
    "Polytope",
    "ReliabilityVerdict",
    "ReliableCoverError",
    "ShadowCoverReport",
    "SimplicialFamily",
    "Subspace",
    "SubspaceSampler",
    "Unbounded",
    "apply_linear",
    "backend_name",
    "build_S",
    "build_counterexample",
    "cross_check_2iff2",
    "direct_sum",
    "direct_sum_assemble",
    "direction_set",
    "embed",
    "enumerate_simplicial",
    "extract_factors",
    "facet_direction_set",
    "find_alpha",
    "hull_from_vertices",
    "is_centrally_symmetric",
    "is_decomposable",
    "is_reliable",
    "is_simplicial",
    "max_scale",
    "minkowski_sum",
    "normal_components",
    "parallelotope_check",
    "product_containment",
    "project",
    "sampled_shadow_cover",
    "scale_polytope",
    "shadow_fit",
    "solve_lp",
    "support",
    "translate",
    "translate_fit",
    "vector_area_check",
    "verify_bundle",
]
