"""Outlier-robust top-direction recovery, batch and single-pass streaming."""

from .core import (
    AlgoConfig,
    FilterEntry,
    FilterStack,
    WeightedDataset,
    load_dataset,
    rng_stream,
    save_dataset,
)
from .certificate import Candidate, sample_top_eigenvector, sample_top_eigenvector_streaming
from .contamination import (
    AdversaryKind,
    AdversarySpec,
    InlierFamily,
    InlierSpec,
    gen_inliers,
    metric_approx_ratio,
    strong_contaminate,
    tv_contaminated_source,
)
from .driver import PcaResult, PcaStatus, naive_pca, robust_pca
from .errors import (
    DegenerateStateError,
    FilterLoopError,
    MemoryBudgetError,
    StreamExhaustedError,
)
from .estimators import (
    opnorm_bracket,
    stream_mean_estimate,
    streaming_quantile,
    trimmed_variance,
    weighted_quantile,
)
from .filtering import FilterOutcome, hard_thresholding_filter, hard_thresholding_filter_batch
from .linops import (
    SecondMomentOp,
    approx_power_iteration,
    power_direction,
    power_iteration,
    streamed_power_apply,
)
from .sources import (
    BudgetedSource,
    ReplaySource,
    SampleSource,
    ScalarLedger,
    SyntheticSource,
)
from .streaming import MinibatchEstimators, StreamStats, streaming_robust_pca

__version__ = "0.1.0"
