"""Closed-form system frequency response toolkit.

Library layout:

- model         -- grid state, response bands, derived damping/inertia
- closedform    -- exact deviation solutions, nadir time/depth, RoCoF
- oracle        -- fixed-step RK4/Euler integration of the same ODE
- bandfit       -- two-band to single-band reduction and accuracy maps
- applications  -- contingency caps, tau bounds, trade-off sensitivities
- cli           -- batch front-end emitting deterministic CSV/JSON artifacts
"""

from .applications import (
    NadirConstants,
    SecurityPolicy,
    SensitivityReport,
    WEM_K_POLICY,
    asymptotic_max_contingency,
    max_contingency,
    max_contingency_k_sensitivity,
    min_effective_tau,
    nadir_constants,
    required_ffr_share,
    sensitivity_pcont,
    sensitivity_report,
    sensitivity_report_fd,
    sensitivity_tau_bands,
    special_case_max_contingency,
    universal_max_contingency_factor,
)
from .bandfit import (
    CANONICAL_SURFACE,
    EquivalentBand,
    MapeReport,
    TauSurfaceModel,
    TauSweepReport,
    TwoBandPfr,
    build_tau_surface,
    canonical_equivalent,
    equivalent_tau,
    fit_equivalent_band,
    mape,
    mape_map,
    mape_tau_sweep,
)
from .closedform import (
    ASYMPTOTIC,
    INTERIOR_MINIMUM,
    NadirResult,
    asymptotic_nadir,
    lag_nadir,
    lag_nadir_time_from_ratios,
    max_rocof,
    multi_lag_delta_f,
    multi_ramp_delta_f,
    trace,
)
from .errors import BranchError, FitError, InvalidInputError
from .model import (
    DerivedParams,
    FrequencyTrace,
    LagBand,
    RampBand,
    Scenario,
    SystemConditions,
    derive_params,
    load_scenario,
    total_pfr_value,
)
from .oracle import FORWARD_EULER, RK4, IntegrationSpec, integrate, trace_nadir

__version__ = "0.1.0"
