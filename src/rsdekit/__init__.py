"""Simulation and statistical verification toolkit for diffusions with
normal reflection in nonsmooth domains."""

from .errors import (AmbiguousProjection, ConfigError, GridMismatch,
                     RsdekitError, StartOutsideDomain, TubeTooNarrow,
                     UnsupportedKind)
from .geometry import (AxisBox, Ball, ConvexPolytope, Domain, HalfSpace,
                       Membership, NotchedDisc, check_conditions, make_domain)
from .paths import (Control, SamplePath, adapted_interpolation,
                    control_from_path, control_from_values, dyadic_grid,
                    holder_seminorm, levy_functionals, levy_sup,
                    linear_control, refine_bridge, sample_brownian,
                    sine_control, sup_norm, tube_sample, zero_control)
from .rsde import (Coefficients, btilde, coefficients_from_pointwise,
                   euler_reflected, make_coefficients, shifted_driver,
                   skeleton, wong_zakai)
from .skorohod import (BV_COMPARISON_BOUND, SkorohodSolution, solve,
                       verify_bv_comparison, verify_tv_bound)

__version__ = "0.1.0"
