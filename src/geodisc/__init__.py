"""Extremal holomorphic maps of the unit disc into balanced domains.

Pick-matrix classification and the Blaschke degree of interpolation data,
weighted Minkowski gauges for ellipsoids / balls / polydiscs / custom
gauges, proper normal forms into complex ellipsoids, ball normal forms,
left-inverse certificates for the named map families, a falsifier for weak
extremality, and properness profiling - all behind a JSON/CSV command line.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .cplane import (BlaschkeProduct, ComplexPolynomial, blaschke_degree_of_data,
                     lagrange_polynomial, moebius)
from .domains import (Ball, CustomGauge, Domain, Ellipsoid, Polydisc, UnitDisc,
                      boundary_samples, domain_from_json, minkowski_many,
                      minkowski_value, semilinear_gauge, sn_membership,
                      squared_sum_gauge)
from .errors import (AmbiguousClassificationError, DegenerateInstanceError,
                     GaugeError, GeodiscError, InfeasibleDataError,
                     PreconditionError)
from .mapspec import MapSpec, MultiPoly, monomial_map
from .maps import (FAMILIES, Ball3Params, EdigarianForm, as_mapspec,
                   ball3_equivalent_params, ball3_normal_form,
                   ball3_solve_params, ball3_verify_params,
                   ball_power_pair_map, chi_w, compose_with_blaschke,
                   divide_moebius_powers, edigarian_check, edigarian_complete,
                   edigarian_normalize, multiply_moebius_powers,
                   power_pair_geodesic, power_pair_map, power_pair_slack,
                   semilinear_slack, semilinear_triple_map,
                   squared_sum_slack, squared_sum_triple_map)
from .pick import (INDEFINITE, POSITIVE_DEFINITE, SINGULAR_PSD, FalsifierResult,
                   PickData, PickVerdict, classify_pick, falsify_weak_extremality,
                   pick_matrix, polydisc_test)
from .certify import (CERTIFIED, INCONCLUSIVE, REFUTED, Certificate,
                      ProfileResult, ball3_inputs, ball_monomial_inputs,
                      monomial_curve_inputs, monomial_curve_left_inverse,
                      properness_profile, verify_left_inverse)
from .policy import DEFAULT_POLICY, NumericPolicy

# the names imported above, not the submodules their import binds here
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
