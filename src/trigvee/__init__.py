"""trigvee: exact trigonometric vee-system checks, WDVV and CMS verification.

The exact layer (configurations, series conditions, coupling solve,
constraint polynomials) works over arbitrary-precision rationals; the
numeric layer (WDVV commutator residuals, CMS identity, prepotential)
works over complex floats with seeded, reproducible sampling.

The package exports the entry points of README's library block; every
other name is imported from its own module, e.g. `trigvee.cms.euclidean_metric`.
"""

from .catalog import catalog_get
from .cms import cms_identity_residual, vee_form_metric
from .configuration import build_configuration
from .constraints import find_multiplicities, linear_family, series_constraints, verify_family
from .veecheck import check_series_condition, full_check, solve_lambda_squared
from .wdvv import wdvv_residual

__version__ = "0.1.0"
