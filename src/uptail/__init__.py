"""Upper-tail rate functions for homomorphism counts in sparse random graphs.

Library layout:
  graphs     - patterns, 2-core, independence polynomial, exponents
  homs       - exact/weighted homomorphism counting and gradients
  rates      - closed-form rate constants (binomial, regular, joint, block)
  blocks     - explicit block-matrix optimizers with exact backgrounds
  solver     - numerical entropy minimization under hom constraints
  ensembles  - samplers, tail Monte Carlo, importance sampling
  cli        - command-line front end (uptail ...)
"""

from .blocks import (
    BlockSpec,
    build_clique_block,
    build_clique_hub,
    build_cycle_blocks,
    build_irregular_dreg,
    build_whole_cliques,
    validate_membership,
)
from .ensembles import (
    EnsembleSpec,
    TailEstimate,
    block_model,
    er,
    importance_tail,
    mc_upper_tail,
    pittel_check,
    planted,
    regular,
    rng_stream,
    sample,
    uniform,
)
from .errors import (
    ConstructionError,
    DomainError,
    NumericError,
    ParseError,
    ResourceError,
    SamplingError,
    UptailError,
)
from .graphs import (
    Graph,
    IndependencePolynomial,
    delta_star,
    f_exponent,
    h_star,
    independence_polynomial,
    independent_sets,
    parse_graph,
    two_core,
)
from .homs import (
    cycle_hom_spectral,
    hom_count,
    hom_density_t,
    hom_gradient,
    hom_normalized,
)
from .rates import (
    BlockModelParams,
    RateReport,
    b_h,
    c_er,
    c_joint,
    c_reg,
    entropy_ip,
    entropy_matrix,
    lemma_floor_bound,
    log_gn_regular,
    rate_scale,
    scale_anp,
    scale_pattern,
    theta_root,
)
from .solver import (
    SolveProblem,
    SolveResult,
    project_ensemble,
    solve_phi,
)

__version__ = "0.1.0"
