"""fbmlab: fractional Brownian motion simulation, discretisation errors of
pathwise integrals with bounded-variation integrands, and local times."""

__version__ = "0.1.0"

from .fbm import (  # noqa: F401
    EmbeddingError,
    GridSpec,
    HurstIndex,
    fbm_covariance,
    fgn_autocovariance,
    sample_exact_batch,
    sample_fft_batch,
)
from .integrals import (  # noqa: F401
    SignedMeasure,
    crossing_sums,
    indicator_measure,
)
from .localtime import (  # noqa: F401
    binning_estimates,
    moment_oracle,
    sign_change_estimates,
)
from .harness import ExperimentPlan, RateReport, run_rate_experiment  # noqa: F401
