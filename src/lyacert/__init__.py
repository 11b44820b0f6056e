"""lyacert: Lyapunov stability certification for matrix semigroups.

Certifies exponential stability of e^{tA} from a positive solution of the
Lyapunov equation A'P + PA = -C'C with a detectable right-hand side, with
the supporting machinery: integrated semigroups, positive cones and order
units, implemented/tensor-product semigroups with projective duality, and
detectability/observability tests.
"""

__version__ = "0.10.0"

from .exceptions import (  # noqa: F401
    DimensionError,
    DivergenceError,
    InternalInconsistencyError,
    InvalidOrderUnitError,
    LyacertError,
    NoInjectionExistsError,
    NotObserverError,
    NotPsdError,
    NotStableError,
    NumericalError,
    ProblemFormatError,
    ResonantSpectrumError,
    UnsupportedConeOperation,
)
from .linalg import (  # noqa: F401
    GrowthBound,
    NormInterval,
    SchurForm,
    cesaro_integral,
    expm,
    gramian_integral,
    growth_fit,
    induced_norm,
    integral_exp,
    nuclear_norm,
    schur_form,
    spectral_abscissa,
)
from .cones import (  # noqa: F401
    ConeSpec,
    CongruenceMap,
    cone_contains,
    decompose_pm,
    dual_cone_contains,
    is_order_unit,
    map_preserves_cone,
    order_unit_norm,
)
from .semigroup import (  # noqa: F401
    SemigroupProbe,
    StabilityReport,
    lemma_AS_suite,
    s_infinity,
    stability_report,
    trajectory,
    weak_L1_stable_on_cone,
    weak_detector_check,
)
from .lyapunov import (  # noqa: F401
    LyapunovOperator,
    grothendieck_decompose,
    implemented_apply,
    lyap_apply,
    lyap_solve_direct,
    lyap_solve_integral,
    monomial,
    pairing,
    projective_norm,
    rkhs_factor,
    symmetric_project,
    tensor_semigroup_apply,
)
from .detect import (  # noqa: F401
    DetectabilityReport,
    ObservedPair,
    detectability_report,
    final_observability,
    final_observability_constant,
    hautus_detectable,
    l2_detectable,
    observability_gramian,
    observer_implies_detector_audit,
    pi_detector_check,
    stabilizing_output_injection,
    unobservable_subspace,
)
from .certify import (  # noqa: F401
    Certificate,
    ProblemSpec,
    VERDICT_INCONCLUSIVE,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    emit_decay_csv,
    parse_problem,
    run_gallery,
    wonham_certify,
)
