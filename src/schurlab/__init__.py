"""schurlab: a numerical laboratory for Schur-multiplier certificates,
Hölder functional-calculus experiments, interpolation functionals, and the
exactly solvable exponential-kernel spectrum, all on finite matrix algebras.

Submodules load on first use (PEP 562): ``import schurlab`` compiles none of
them, and ``schurlab.make_kernel`` imports only ``factorization`` (and what
it imports).
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("operators", "multipliers", "factorization", "experiments",
               "interpolation", "expkernel", "serialize")

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys((
        "InvariantViolation", "SchattenIndex", "SignedPowerFunction",
        "apply_calculus", "p_triangle_defect", "schatten_norm", "spectral_decompose",
    ), "operators"),
    **dict.fromkeys((
        "MultiplierNormEstimate", "SymbolMatrix", "divided_difference_integral",
        "divided_difference_symbol", "multiplier_norm_lower", "rank_one_sum_bound",
        "restrict_symbol", "schur_apply",
    ), "multipliers"),
    **dict.fromkeys((
        "DyadicBlock", "RankOneFactorization", "SmoothKernel", "build_factorization",
        "bump_function", "certified_pcb_bound", "dyadic_block_bound",
        "kernel_catalog", "make_kernel", "plus_kernel_bound", "power_ratio_base_bound",
        "sobolev_constant", "sum_quadrant_bound",
    ), "factorization"),
    **dict.fromkeys((
        "RatioSample", "SearchReport", "ando_ratio", "estimate_constant",
    ), "experiments"),
    **dict.fromkeys((
        "KFunctionalQuery", "RearrangementProfile", "k_functional", "lorentz_norm",
        "rearrangement", "selfadjoint_k_gap",
    ), "interpolation"),
    **dict.fromkeys((
        "KernelSpectrum", "analytic_eigenvalues", "eigenfunction_residual",
        "nystrom_spectrum", "schatten_partial_sums", "solve_theta",
    ), "expkernel"),
}

__all__ = sorted([*_EXPORTS, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
