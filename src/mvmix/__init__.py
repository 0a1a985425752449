"""Multi-asset lognormal mixture dynamics: pricing, simulation, dependence.

The joint law of n smile-consistent assets is modeled so that its density is
at all times a tensor-product-weighted mixture of multivariate lognormals.
European basket claims then price as the same convex combination of
single-step component prices, while each asset keeps its own univariate
mixture dynamics exactly.
"""

from .volcurve import VolCurve
from .univariate import (
    AssetMixture,
    MixtureComponent,
    analytic_moment,
    component_pdf,
    inverse_cdf,
    local_vol,
    mixture_cdf,
    mixture_pdf,
)
from .multivariate import (
    CorrelationMatrix,
    MultiAssetModel,
    SingularCovarianceError,
    TupleSet,
    density_count,
    mvmd_diffusion_squared,
    scmd_covariance,
    truncate,
    volume_estimate,
)
from .pricing import (
    BasketSpec,
    PriceEstimate,
    black_scholes,
    geometric_pair_k0,
    greeks_mvmd,
    margrabe,
    price_geometric_mvmd,
    price_mvmd_mc,
)
from .montecarlo import (
    SimulationConfig,
    TerminalSample,
    estimate,
    sample_muvm_terminal,
    sample_mvmd_terminal,
    simulate_md_euler,
    simulate_scmd,
)
from .dependence import (
    bivariate_normal_cdf,
    copula_value,
    empirical_copula,
    kendall_tau_empirical,
    kendall_tau_mvmd,
    multivariate_normal_cdf,
)
from .config import ConfigError, ExperimentConfig, dump_config, load_config

__all__ = [
    "VolCurve",
    "AssetMixture",
    "MixtureComponent",
    "analytic_moment",
    "component_pdf",
    "inverse_cdf",
    "local_vol",
    "mixture_cdf",
    "mixture_pdf",
    "simulate_md_euler",
    "CorrelationMatrix",
    "MultiAssetModel",
    "SingularCovarianceError",
    "TupleSet",
    "density_count",
    "mvmd_diffusion_squared",
    "scmd_covariance",
    "truncate",
    "volume_estimate",
    "BasketSpec",
    "PriceEstimate",
    "black_scholes",
    "geometric_pair_k0",
    "greeks_mvmd",
    "margrabe",
    "price_geometric_mvmd",
    "price_mvmd_mc",
    "SimulationConfig",
    "TerminalSample",
    "estimate",
    "sample_muvm_terminal",
    "sample_mvmd_terminal",
    "simulate_scmd",
    "bivariate_normal_cdf",
    "copula_value",
    "empirical_copula",
    "kendall_tau_empirical",
    "kendall_tau_mvmd",
    "multivariate_normal_cdf",
    "ConfigError",
    "ExperimentConfig",
    "dump_config",
    "load_config",
]

__version__ = "0.1.0"
