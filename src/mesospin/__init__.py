"""Collective-spin superposition states: dynamics, metrology, tomography.

Library for a single large spin (j = 8 by default) evolving under a
one-axis twisting interaction, covering exact and approximate
collapse-and-revival dynamics, projection-noise metrology of the
extreme superposition state, convex least-squares state reconstruction,
field-noise dephasing models, and an imperfection budget for the
metrological gain.
"""

__version__ = "0.1.0"

from .angular import (
    clebsch_gordan,
    clenshaw_curtis_weights,
    sphere_integral,
    sphere_quadrature,
    tensor_operator,
)
from .budget import (
    BudgetRow,
    GainBudget,
    SchemeGains,
    gain_budget,
    measurement_scheme_gains,
)
from .config import (
    RunConfig,
    apply_overrides,
    canonical_json,
    config_from_json,
    config_hash,
    config_to_json,
    default_config,
    load_config,
)
from .core import (
    Direction,
    SpinOperatorSet,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    basis_state,
    dimension,
    expectation,
    expi_hermitian,
    fidelity,
    m_values,
    make_operators,
    projector,
    spin_of,
    spin_variance,
)
from .dephasing import (
    DecayCurve,
    NoiseModel,
    ScalingIdentityReport,
    coherence_decay,
    coherence_time,
    gyromagnetic_ratio,
    kitten_dephase,
    ramsey_simulate,
    scaling_identity_check,
)
from .dynamics import (
    CouplingConfig,
    analytic_mz,
    analytic_varz,
    collapse_time,
    evolve,
    gaussian_mz,
    gaussian_varz,
    hamiltonian,
    kitten_state,
    oat_closed_form,
    revival_state,
)
from .ensemble import (
    ImperfectionConfig,
    ensemble_evolve,
    pulse_steps,
    scattering_channels,
)
from .fitting import (
    DecayFit,
    LeastSquaresResult,
    SinusoidFit,
    damped_least_squares,
    fit_decay,
    fit_sinusoid,
)
from .measurement import (
    DimensionError,
    ProjectionDistribution,
    equatorial_direction,
    equatorial_scan,
    magnetization,
    parity,
    projection_probs,
    ramsey_scan,
    sample_counts,
    variance,
)
from .metrology import (
    GainReport,
    PhaseScan,
    classical_fisher,
    equatorial_phase_scan,
    fisher_gain,
    fisher_information,
    gain_from_hellinger,
    gain_from_magnetization,
    gain_from_parity,
    hellinger_curve,
    hellinger_window,
    parity_gain_from_contrast,
    sample_scan,
    variance_bound,
)
from .rng import RNG_ALGORITHM, substream
from .tomography import (
    DatasetError,
    TomographyDataset,
    TomographyFit,
    bootstrap_errors,
    coherence_ratio,
    dataset_from_json,
    dataset_to_json,
    default_equatorial_angles,
    fit_density_matrix,
    forward_model,
    synthesize_dataset,
    wigner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
