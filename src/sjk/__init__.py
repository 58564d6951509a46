"""Exact-arithmetic engine for Sobolev-Jacobi and two-variable Hermite
polynomial families, their generating functions, lacunary series, and
connection coefficients.

All arithmetic happens in the ring of rationals times integer powers of
sqrt(pi); nothing is ever evaluated in floating point.
"""

from .errors import (
    DomainError,
    ExpansionError,
    InternalError,
    KernelHit,
    ParamError,
    PoleError,
    SjkError,
)
from .scalar import (
    ExactScalar,
    HalfInt,
    beta_fn,
    gamma_half,
    gamma_ratio,
    half,
    pochhammer,
    recip_gamma,
)
from .poly import CoeffSeries, Poly
from .opcalc import (
    DiagonalOp,
    ERROR_ON_KERNEL,
    IDENTITY_ON_KERNEL,
    apply_diagonal,
    apply_inverse_diagonal,
    exp_B_bivariate,
    exp_resolvent_sj,
    gp_series,
    hermite_exp,
    jacobi_operator_apply,
)
from .umbral import GenMonomial, GenSeries, expand_exponential, gen_product, itransform
from .hyper import (
    HyperSpec,
    gamma_multiplication,
    pfq_coeff,
    pfq_derivative,
    pochhammer_proliferate,
    tricomi_coeff,
)
from .families import (
    egf_beta_shifted,
    hermite_closed,
    jacobi_classical,
    matching_coeff,
    sj_closed_beta,
    sj_closed_mm,
    sj_egf_coeff,
    sj_umbral,
)
from .lacunary import (
    coeff_bridge_check,
    hermite_lacunary_closed,
    hermite_lacunary_shift,
    hermite_lacunary_slice,
    lacunary_dilate,
    multisection_oracle,
    sj_lacunary_closed,
    sj_lacunary_shift_gen,
    sj_lacunary_slice,
)
from .connect import (
    biorthogonality_check,
    connection_gf_coeff,
    gaussian_pair,
    hermite_connection,
    reaction_solve,
    reconstruct_monomial,
    sj_connection,
)

__version__ = "0.1.0"
