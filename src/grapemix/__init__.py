"""Group-robust multi-target domain reweighting.

Jointly adapts sampling weights over source data domains and priority
weights over target tasks during training, using interleaved
exponentiated-gradient updates driven by gradient alignment.
"""

from .analysis import (
    TheoremHarnessReport,
    Trajectory,
    TrajectoryRecord,
    VarianceCheck,
    convergence_report,
    export_trajectory,
    import_trajectory,
    render_trajectory,
    task_variance,
    variance_monotonicity_check,
    variance_series,
)
from .data import (
    Dataset,
    MarkovLanguageSpec,
    MixtureStore,
    chain_cross_entropy,
    chain_entropy_rate,
    generate_markov_corpus,
    ingest_dataset,
    sample_domain_batches,
    sample_mixture_batch,
    sample_task_batches,
    stationary_distribution,
    stream_rng,
)
from .errors import (
    ConfigError,
    DegenerateLoss,
    DegenerateWeights,
    DimensionError,
    DivergenceUndefined,
    EmptyBatch,
    EmptyDataset,
    GrapemixError,
    IngestError,
    NumericalDivergence,
    ReportError,
    ScoreError,
    SpecError,
)
from .metrics import LOSS_FLOOR, normalized_grad, roi
from .models import (
    CharLMModel,
    DifferentiableModel,
    QuadraticExample,
    QuadraticModel,
    QuadraticTaskFamily,
    SoftmaxModel,
    finite_diff_check,
)
from .reweighting import (
    ALGORITHMS,
    OverheadCounter,
    ReweightConfig,
    alignment,
    domain_reweight_step,
    learning_rate_at,
    pcgrad_combine,
    pcgrad_surgered,
    task_reweight_step,
    train_run,
)
from .simplex import (
    SimplexWeights,
    bregman_entropy_divergence,
    multiplicative_update,
    normalize,
)

__version__ = "0.1.0"
