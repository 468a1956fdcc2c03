"""trigvee: exact trigonometric vee-system checks, WDVV and CMS verification.

The exact layer (configurations, series conditions, coupling solve,
constraint polynomials) works over arbitrary-precision rationals; the
numeric layer (WDVV commutator residuals, CMS identity, prepotential)
works over complex floats with seeded, reproducible sampling.
"""

from .catalog import CatalogEntry, catalog_get, catalog_list
from .cms import (
    CmsReport,
    CmsToVeeResult,
    Metric,
    check_series_with_metric,
    cms_identity_residual,
    cms_to_vee,
    eigenvalue_estimate,
    euclidean_metric,
    solve_capital_lambda,
    vee_form_metric,
)
from .configuration import (
    AlphaSeries,
    ConfigEntry,
    Covector,
    PositiveSystem,
    VConfiguration,
    alpha_series,
    build_configuration,
    covector,
    decompose_components,
    direct_sum,
    dual_vector,
    positive_system,
    signed_covectors,
    vee_product,
)
from .constraints import (
    ConstraintSet,
    FamilyVerdict,
    find_multiplicities,
    linear_family,
    series_constraints,
    verify_family,
)
from .errors import VeeError
from .exactnum import RatMatrix, Rational, hnf_basis, mat_inverse
from .multipoly import MultiPoly, RatFunc, parse_expression
from .veecheck import (
    FullCheckReport,
    LambdaSolution,
    SeriesCheckReport,
    check_rational_vee,
    check_series_condition,
    full_check,
    solve_lambda_squared,
)
from .veefile import ConfigFile, config_file_from_configuration, parse_config_file, render_config_file
from .wdvv import (
    EvalPoint,
    ResidualReport,
    check_f_derivative,
    eval_prepotential,
    f_trig,
    sample_points,
    third_derivative_matrices,
    trilog,
    wdvv_residual,
)

__version__ = "0.1.0"
