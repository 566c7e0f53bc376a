"""riskcap: loss-distribution-approach capital with Bayesian parameter uncertainty.

Annual loss in a risk cell is a compound Poisson sum of i.i.d. severities.
The conditional capital path plugs MLE point estimates into the simulator;
the predictive path averages over the conjugate posterior, so the 0.999
quantile reflects both process risk and parameter risk.
"""

from .bayes import NIXParams, PosteriorState
from .capital import (
    CellModel,
    LossData,
    conditional_capital,
    predictive_capital,
)
from .distributions import (
    GammaParams,
    LognormalParams,
    ParetoParams,
    PointParams,
    RngStream,
)
from .experiments import bias_study, generate_synthetic, single_realization_track
from .mc_engine import (
    LossSample,
    QuantileEstimate,
    empirical_quantile,
    simulate_conditional_sample,
    simulate_predictive_sample,
)

__version__ = "0.1.0"
