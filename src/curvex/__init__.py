"""Numerical census of inflections and double tangents for anti-convex
projective curves, with the constant-width support-function analogue."""

__version__ = "0.1.0"

from .circle import Arc, CircularSet, antipode, canonical, cyclic_between
from .trig import (
    TrigSeries,
    VectorSeries,
    apply_flex_operator,
    cos_series,
    isolate_sign_changes,
    osculating_in_am,
    sin_series,
    truncate,
)
from .sphere import (
    ContactData,
    GreatCircle,
    ProjectiveCurve,
    admissible_normal_arc,
    inflection_indicator,
    limiting_circle,
    true_inflections,
)
from .linesys import (
    AdmissibleInterval,
    AxiomReport,
    LineSystem,
    check_axioms,
    find_clean_inflection,
    intermediate_point,
    mu_bounds,
    three_clean_inflections,
)
from .census import (
    CensusReport,
    Chord,
    DoubleTangentInterval,
    ReducedCurve,
    chord,
    count_inflections_topological,
    detect_double_tangents,
    maximal_independent_family,
    reduction,
)
from .width import (
    DCircle,
    LimitingFunction,
    SupportFunction,
    a2_double_tangents,
    census_fn,
    clean_flexes,
    curve_point,
    d_inflections,
    limiting_function,
    theorem_c_certificates,
)

__all__ = [name for name in dir() if not name.startswith("_")]
