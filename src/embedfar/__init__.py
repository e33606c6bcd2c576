"""Far-field patterns of rational polygons via stabilized embedding.

One boundary-element solve per canonical incidence angle fixes the
entire two-angle far-field map D(theta, alpha); evaluation for any other
incidence is a weighted combination whose naive form is numerically
unstable near the zeros of the trigonometric weight.  This package
provides the geometry bookkeeping, a piecewise-constant collocation
solver, the stabilized evaluator, and the oversampled coefficient
computation, plus a CLI for the standard experiments.
"""

__version__ = "0.1.0"

from .bem import BemSystem, FarField, build_system
from .coefficients import (
    SystemMatrix,
    canonical_angles,
    column_subset,
    default_oversampling,
    svd,
    tsvd_pseudoinverse,
)
from .embedding import (
    EmbeddingBasis,
    StabilizedEvaluator,
    lambda_weight,
    naive_eval,
    pole_environment,
    pole_set,
)
from .geometry import (
    RationalShape,
    load_geometry_file,
    preset_shape,
    shape_from_vertices,
)
from .specialfun import gauss_legendre, hankel1

__all__ = [
    "__version__",
    "BemSystem",
    "FarField",
    "build_system",
    "SystemMatrix",
    "canonical_angles",
    "column_subset",
    "default_oversampling",
    "svd",
    "tsvd_pseudoinverse",
    "EmbeddingBasis",
    "StabilizedEvaluator",
    "lambda_weight",
    "naive_eval",
    "pole_environment",
    "pole_set",
    "RationalShape",
    "load_geometry_file",
    "preset_shape",
    "shape_from_vertices",
    "gauss_legendre",
    "hankel1",
]
