"""Monte Carlo photon-pair imaging on an EMCCD, plus the correlation analysis
that recovers position/momentum entanglement signatures from frame stacks."""

__version__ = "0.1.0"

from .config import RunConfig
from .correlate import (
    CorrelationMap,
    MapCut,
    Mode,
    StackAccumulator,
    StackResult,
    SubtractedMap,
    central_cuts,
    peak_snr,
    subtract,
)
from .emccd import (
    Calibration,
    CameraParams,
    calibrate,
    calibrate_flux_equivalence,
    expose,
    threshold,
)
from .errors import (
    AnalysisError,
    BpcamError,
    ConsistencyError,
    FitFailureError,
    FrameFormatError,
    ParameterError,
)
from .framestack import (
    KIND_BINARY,
    KIND_RAW,
    StackHeader,
    StackReader,
    StackWriter,
)
from .inference import (
    DimensionalityEstimate,
    EprReport,
    GaussianFit,
    block_bootstrap,
    combine_cuts,
    dimensionality,
    epr_product,
    fit_gaussian,
    fit_map_width,
    inferred_variance,
    make_blocks,
)
from .model import (
    AnalyticPrediction,
    HEISENBERG_PRODUCT,
    OpticalSystem,
    Plane,
    SourceParams,
    analytic_conditional_variances,
    predict,
    predicted_correlation_lengths,
    predicted_mode_count,
)
from .pipeline import AnalysisProducts, SimulateResult, analyze, run, simulate
from .sampler import (
    AttenuationMode,
    FluxConfig,
    FrameEvents,
    generate_frame_events,
    sample_pairs,
    substream,
)
