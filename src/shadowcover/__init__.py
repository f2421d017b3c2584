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
    sampled_shadow_cover,
    translate_fit,
)
from .counterexample import (
    BundleVerification,
    CounterexampleBundle,
    ReliableCoverError,
    build_S,
    build_counterexample,
    verify_bundle,
)
from .decomposability import (
    DecompositionReport,
    extract_factors,
    is_decomposable,
)
from .lp import Infeasible, LPProblem, Optimal, Unbounded, solve_lp
from .polytope import (
    Facet,
    Polytope,
    Subspace,
    apply_linear,
    direct_sum,
    direct_sum_assemble,
    hull_certificate_valid,
    hull_from_vertices,
    is_centrally_symmetric,
    project,
    scale_polytope,
)
from .reliability import (
    DirectionSet,
    ReliabilityVerdict,
    SimplicialFamily,
    direction_set,
    facet_direction_set,
    is_reliable,
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
    "direct_sum",
    "direct_sum_assemble",
    "direction_set",
    "extract_factors",
    "facet_direction_set",
    "hull_certificate_valid",
    "hull_from_vertices",
    "is_centrally_symmetric",
    "is_decomposable",
    "is_reliable",
    "max_scale",
    "parallelotope_check",
    "project",
    "sampled_shadow_cover",
    "scale_polytope",
    "solve_lp",
    "translate_fit",
    "verify_bundle",
]
