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
    simulate_md_euler,
)
from .multivariate import (
    ComponentTuple,
    CorrelationMatrix,
    MultiAssetModel,
    SingularCovarianceError,
    TupleSet,
    component_mvln_pdf,
    density_count,
    integrated_covariance,
    mvmd_diffusion_squared,
    scmd_covariance,
    truncate,
    volume_estimate,
)
from .pricing import (
    BasketSpec,
    PriceEstimate,
    black_scholes,
    component_arithmetic_price,
    geometric_pair_k0,
    geometric_tuple_price,
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
    simulate_scmd,
)
from .dependence import (
    TauParams,
    bivariate_normal_cdf,
    copula_value,
    empirical_copula,
    kendall_tau_empirical,
    kendall_tau_mvmd,
    multivariate_normal_cdf,
    tau_params,
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
    "ComponentTuple",
    "CorrelationMatrix",
    "MultiAssetModel",
    "SingularCovarianceError",
    "TupleSet",
    "component_mvln_pdf",
    "density_count",
    "integrated_covariance",
    "mvmd_diffusion_squared",
    "scmd_covariance",
    "truncate",
    "volume_estimate",
    "BasketSpec",
    "PriceEstimate",
    "black_scholes",
    "component_arithmetic_price",
    "geometric_pair_k0",
    "geometric_tuple_price",
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
    "TauParams",
    "bivariate_normal_cdf",
    "copula_value",
    "empirical_copula",
    "kendall_tau_empirical",
    "kendall_tau_mvmd",
    "multivariate_normal_cdf",
    "tau_params",
    "ConfigError",
    "ExperimentConfig",
    "dump_config",
    "load_config",
]

__version__ = "0.1.0"
