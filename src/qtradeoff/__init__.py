"""qtradeoff: measurement-error / disturbance tradeoff toolkit for binary
qubit instruments.

Models two-outcome qubit measurements as quantum instruments, evaluates
worst-case error and disturbance measures, reproduces the optimal
tradeoff frontier together with the asymmetric-cloner and coherent-swap
reference curves, and simulates the interferometric realization of the
optimal instrument family including the data-analysis pipeline.
"""

from .instruments import (
    DiagonalFamilyParams,
    Instrument,
    NotNormalized,
    OptimalFamilyParams,
    ParamOutOfRange,
    Povm,
    apply_channel,
    instrument_from_descriptor,
    make_diagonal_instrument,
    make_optimal_instrument,
    outcome_probabilities,
    povm_of,
    validate_instrument,
)
from .measures import (
    MeasureKind,
    TradeoffPoint,
    UnknownKind,
    check_measure_axioms,
    diagonal_disturbance_closed_form,
    disturbance,
    measurement_error,
    tradeoff_of,
)
from .qmath import (
    ID2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NotHermitian,
    herm_eigvals,
)
from .schemes import (
    ClonerParams,
    MarginalChannelSpec,
    SwapParams,
    cloner_tradeoff_point,
    optimal_frontier,
    swap_tradeoff_point,
)
from .states import (
    OutsideBall,
    bloch_to_density,
    density_to_bloch,
    linear_pol_state,
    sm7_state_list,
)
from .supopt import (
    DegenerateFit,
    ExtremumEstimate,
    SupremumStrategy,
    parabolic_refine,
)
from .experiment import (
    ExperimentConfig,
    InsufficientCounts,
    InterferometerSetting,
    estimate_tradeoff,
    gamma_beta_from_setting,
    instrument_from_setting,
    simulate_dataset,
)

__version__ = "0.1.0"
