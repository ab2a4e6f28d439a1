"""orbitint: exact-arithmetic S-integrality of two-parameter orbits of
rational self-maps of the projective line over the rationals."""

__version__ = "0.1.0"

from .exactarith import (
    PlaceSet,
    is_s_unit,
    parse_rational,
)
from .projective import (
    INFINITY,
    ProjPoint,
    from_affine,
    normalize,
    parse_point,
)
from .ratmap import (
    CriticalDatum,
    EscapeCertificate,
    PoweringWitness,
    RatMap,
    WanderingResult,
    bad_reduction_primes,
    certify_wandering,
    critical_data,
    eval_map,
    exceptional_points,
    is_powering_conjugate,
    iterate,
    iterated_forms,
    make_map,
    mobius_conjugate,
    preimage_count,
)
from .integrality import (
    IntegralityWitness,
    check_functoriality,
    d_n_cross_form_value,
    is_integral_pair,
    is_integral_rel_dn,
    monotonicity_check,
)
from .divisors import (
    BiForm,
    DivisorTower,
    build_tower,
    diagonal_critical_intersections,
    g_form,
    leading_form_check,
)
from .search import (
    CosetStructure,
    PairReport,
    PairWindow,
    detect_coset_structure,
    exceptional_case_enlarge,
    find_integral_pairs,
    powering_case_enlarge,
    tau_unit_checks_passed,
    tau_values,
)
from .mapexpr import parse_map

__all__ = [name for name in dir() if not name.startswith("_")]
