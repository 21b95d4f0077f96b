"""Numerical laboratory for self-similar extinction profiles of the
singular diffusion equation with gradient absorption

    u_t - div(|grad u|^{p-2} grad u) + |grad u|^q = 0,
    2N/(N+1) < p < 2,  p-1 < q < p/2.

Modules: exponents (closed-form constants and spectra, plus what the
other modules share: the 5-point ln-r derivative, the pinned-basis log
regression, the one fit of the Z-gap decay that gives the tail's theta
and A and the phase rates' lambda3 and Vinf, and the JSON and CSV
writers that fix the byte format of every artifact), shooter (profile
ODE shooting and classification), tail (w-transform, certification,
tail fitting), phase (autonomous phase-space system and rate
extraction), pde (radial solver verifying the extinction rates), cli
(the pipeline driver; the scripts only call it).
"""

from .exponents import (
    ExponentParams,
    DerivedConstants,
    Spectrum,
    RangeReport,
    validate_range,
    derive_constants,
    spectral_data,
    lambdastar,
    constants_json,
    deta,
    log_fit,
    zgap_fit,
    json_text,
    csv_text,
)
from .shooter import (
    ProfileTrajectory,
    ProfileState,
    Classification,
    Bracket,
    series_start,
    energy,
    integrate_profile,
    classify,
    find_bracket,
    find_profile,
    ode_residual,
    trajectory_csv,
    read_profile_csv,
)
from .tail import (
    WState,
    CertReport,
    TailFit,
    w_transform,
    w_residual,
    certify_B,
    fit_tail,
    tailfit_json,
)
from .phase import (
    PhasePath,
    RateFit,
    map_to_phase,
    vector_field,
    jacobian,
    jacobian_origin,
    integrate_phase,
    exact_orbit,
    extract_rates,
    path_dynamics_residual,
    phasepath_csv,
    ratefit_json,
)
from .pde import (
    RadialGrid,
    SelfSimilarField,
    ExtinctionMetrics,
    profile_interpolant,
    build_initial,
    implicit_step,
    run_and_measure,
    metrics_json,
)

__version__ = "0.1.0"
