"""Fixed-grid integrators for sampling scalar linear diffusions,
validated against analytic Gaussian-mixture oracles."""

from .diffusion import (
    DiffusionSpec,
    VpSchedule,
    rho_of_t,
    t_of_rho,
    transition,
    vesde,
    vpsde,
)
from .errors import (
    ConfigError,
    DegenerateNodesError,
    DiffintError,
    DivergenceError,
    DomainError,
    OracleTrustError,
    ParameterError,
    QuadratureError,
)
from .oracle import (
    EpsilonField,
    GaussianMixture,
    Trajectory,
    marginal_at,
    pf_loglik,
    reference_self_check,
    reference_solve,
)
from .samplers import (
    IPNDM_BLEND,
    SAMPLER_NAMES,
    SolverRun,
    em_terminal_batch,
    run_sampler,
)
from .timegrid import TimeGrid, log_rho, make_grid, power_rho, power_t, quadratic, uniform
from .weights import WeightTable, lagrange_basis, rho_ab_weights, tab_weights

__version__ = "0.1.0"
