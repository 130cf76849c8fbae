"""gtail: generalized tail index estimation.

Library layout:

* :mod:`gtail.stats` -- samples, order statistics, the power-log statistic family;
* :mod:`gtail.estimators` -- the seven point estimators of the extreme value index;
* :mod:`gtail.asymptotics` -- bias/variance constants, AMSE, optimal k and tuning;
* :mod:`gtail.secondorder` -- rho/beta estimation and the adaptive pipeline;
* :mod:`gtail.distributions` -- seeded Pareto/Burr/Kumaraswamy samplers;
* :mod:`gtail.montecarlo` -- reproducible simulation harness;
* :mod:`gtail.cli` -- command-line interface.
"""

__version__ = "0.1.0"

from .asymptotics import (
    SecondOrderModel,
    amse,
    eta,
    k_star,
    phi2,
    phi3,
    psi_H,
    psi_MR,
    r_star,
    robustness_limit,
    joint_limit_constants,
    estimator_limit_constants,
    xi,
)
from .distributions import DistSpec, hall_model, quantile, sample
from .errors import (
    DegenerateSampleError,
    DomainError,
    GtailError,
    ParseError,
    PipelineError,
)
from .estimators import (
    Estimate,
    EstimatorSpec,
    evaluate,
    g1,
    g2,
    g3,
    hill,
    hme,
    moment,
    moment_ratio,
)
from .secondorder import (
    AdaptiveResult,
    BetaEstimate,
    RhoEstimate,
    adaptive_estimate,
    beta_hat,
    estimate_rho,
    rho_hat,
)
from .stats import Sample, SampleBlock, stat_g
