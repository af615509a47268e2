"""Shape-derivative calculus on curves and surfaces.

Closed-form first variations of geometric functionals (length, area,
bending energy, cracked-set energies) cross-checked against an independent
finite-difference oracle built on velocity-field flows, plus structure
suites that exercise what those derivatives must satisfy: tangential
nullity, locality, normal-dependence decomposition, and crack endpoint
coefficients.
"""

from .errors import (ConfigError, CrackNotInterior, DegenerateImmersion,
                     IllConditioned, InvariantViolation, NoConvergence,
                     NonFinite, ProbeOverlap, ShapecalcError, SupportViolation)
from .geometry import (Foot, FrenetFrame, ParamCurve, ParamSurface,
                       curvature, curve_curvature_derivs, frenet_rows,
                       integrate_curve, integrate_surface,
                       nearest_curve_param, nearest_surface_param,
                       surface_max_curvature, surface_mean_curvature)
from .fields import (AmbientField, Ball, TangencyReport,
                     bump_field, bump_profile, check_tangency,
                     default_holdall, fd_jacobian, pullback_field,
                     restriction_field, smooth_step, split_field, sum_field)
from .flow import (FlowConfig, flow_manifold, flow_point, flow_with_jacobian,
                   invariance_residual)
from .functionals import (CrackFunctional, ShapeFunctional, analytic_darea,
                          analytic_delastic, analytic_dlength,
                          area_functional, bending_energy, crack_functional,
                          discrete_darea, discrete_delastic, discrete_dlength,
                          elastic_functional, length, length_functional,
                          surface_area)
from .derivative import (DerivativeReport, FDConfig, FDTrace, compare,
                         discrete_variation, fd_quotients)
from .validation import (CrackCoefficients, LocalityPair,
                         StructureSuiteResult, SuiteCase, crack_suite,
                         extract_crack_coefficients, locality_pairs,
                         locality_suite, normal_dependence_suite,
                         nullity_negative_field, tangential_nullity_suite,
                         tangential_probe_fields)
from .catalog import (FIELD_KINDS, FUNCTIONAL_KINDS, SHAPE_KINDS, ParsedField,
                      build_field, build_shape, compatible, parse_field,
                      parse_functional)
from .report_io import (comparison_record, comparisons_csv, load_json,
                        plot_csv, report_document, suite_record,
                        suites_csv, write_json, write_text)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
