"""Fast beam alignment for IRS-assisted mmWave/THz links."""

from .arrays import (
    ArrayConfig,
    cascade_dictionary,
    dft_dictionary,
    steering_vector,
    ula_response,
    upa_response,
)
from .channel import (
    AlignmentEstimate,
    CascadeChannel,
    PathSet,
    assemble_channels,
    exhaustive_search,
    sample_paths,
)
from .codebook import (
    CONSTANT_MODULUS,
    IDEAL_SPARSE,
    RoundEncoding,
    ScanPlan,
    build_round,
    build_scan_plan,
    effective_support,
    encode_round,
    optimize_constant_modulus,
    plan_from_json,
    plan_to_json,
)
from .decoder import (
    MeasurementSet,
    classify_nulltons,
    decode_los,
    decode_nlos,
    rayleigh_threshold,
    select_nm_rounds,
    synthesize_measurements,
)
from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    ThresholdTooHighError,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    bgr,
    optimal_beams,
    run_trial,
    run_trials,
    snr_to_sigma,
    sweep,
)
from .theory import (
    PlanProbe,
    g_exact,
    min_rounds,
    p_lower_los,
    p_lower_nlos,
    p_nm_round,
    sample_complexity,
)

__version__ = "0.1.0"
