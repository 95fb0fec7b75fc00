"""schurlab: a numerical laboratory for Schur-multiplier certificates,
Hölder functional-calculus experiments, interpolation functionals, and the
exactly solvable exponential-kernel spectrum, all on finite matrix algebras.
"""

__version__ = "0.1.0"

from .operators import (
    HermitianOperand,
    InvariantViolation,
    SchattenIndex,
    SignedPowerFunction,
    apply_calculus,
    p_triangle_defect,
    schatten_norm,
    spectral_decompose,
)
from .multipliers import (
    MultiplierNormEstimate,
    SymbolMatrix,
    divided_difference_integral,
    divided_difference_symbol,
    multiplier_norm_lower,
    rank_one_sum_bound,
    restrict_symbol,
    schur_apply,
)
from .factorization import (
    DyadicBlock,
    RankOneFactorization,
    SmoothKernel,
    build_factorization,
    bump_function,
    certified_pcb_bound,
    dyadic_block_bound,
    fourier_coefficients,
    kernel_catalog,
    make_kernel,
    plus_kernel_bound,
    power_ratio_base_bound,
    sobolev_constant,
    sum_quadrant_bound,
)
from .experiments import (
    RatioSample,
    SearchReport,
    ando_ratio,
    anticommutator_ratio,
    bks_check,
    commutator_ratio,
    estimate_constant,
    mazur_ratio,
)
from .interpolation import (
    KFunctionalQuery,
    RearrangementProfile,
    k_functional,
    kfonc_check,
    lorentz_norm,
    rearrangement,
    selfadjoint_k_gap,
    weak_lp_check,
)
from .expkernel import (
    KernelSpectrum,
    analytic_eigenvalues,
    eigenfunction_residual,
    nystrom_spectrum,
    schatten_partial_sums,
    solve_theta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
