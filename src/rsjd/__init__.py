"""Monte Carlo toolkit for regime-switching jump diffusions with countably
many regimes: path simulation, basic and reflection couplings, generator
evaluation with Lyapunov drift certificates, and an estimator suite for
semigroup continuity, irreducibility and invariant-measure diagnostics."""

from .analysis import (
    EstimatorResult,
    FFunction,
    GFunction,
    InvariantReport,
    Partition,
    build_F,
    build_G,
    estimate_invariant,
    estimate_killed_subtransition,
    estimate_semigroup,
    estimate_transition,
    feller_modulus,
    marginal_vs_independent,
    reflection_cross_covariance,
    strong_feller_modulus,
    trend_ok,
    verify_coupling_drift,
)
from .coupling import (
    CoupledPathRecord,
    CouplingConfig,
    couple,
    couple_ensemble,
    sqrt_psd,
)
from .errors import (
    EllipticityError,
    EstimationError,
    QuadratureError,
    RsjdError,
    TruncationError,
)
from .examples import example51, example51_coupling_kappa, example52, example52_drift_bound
from .generator import (
    DriftReport,
    DynkinResult,
    GeneratorValue,
    LyapunovCertificate,
    TestFunction,
    apply_generator,
    as_test_function,
    check_lyapunov,
    dynkin_check,
)
from .model import (
    HybridState,
    JumpMeasureSpec,
    ModelSpec,
    RateMatrixSpec,
    ValidationReport,
    q_row_truncated,
    validate_model,
)
from .simulate import (
    EnsembleResult,
    IntegratorConfig,
    PathRecord,
    simulate_ensemble,
    simulate_killed_path,
    simulate_path,
)

__version__ = "0.1.0"
