"""The package namespace: exports load their submodule on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import schurlab

SRC = str(Path(schurlab.__file__).resolve().parent.parent)
OPTIONAL = ("factorization", "multipliers", "interpolation", "expkernel")

# the export list as it stood when the package imported every submodule eagerly
EXPORTS = [
    "DyadicBlock", "HermitianOperand", "InvariantViolation", "KFunctionalQuery",
    "KernelSpectrum", "MultiplierNormEstimate", "RankOneFactorization", "RatioSample",
    "RearrangementProfile", "SchattenIndex", "SearchReport", "SignedPowerFunction",
    "SmoothKernel", "SymbolMatrix", "analytic_eigenvalues", "ando_ratio",
    "anticommutator_ratio", "apply_calculus", "bks_check", "build_factorization",
    "bump_function", "certified_pcb_bound", "commutator_ratio",
    "divided_difference_integral", "divided_difference_symbol", "dyadic_block_bound",
    "eigenfunction_residual", "estimate_constant", "experiments", "expkernel",
    "factorization", "interpolation", "k_functional",
    "kernel_catalog", "kfonc_check", "lorentz_norm", "make_kernel", "mazur_ratio",
    "multiplier_norm_lower", "multipliers", "nystrom_spectrum", "operators",
    "p_triangle_defect", "plus_kernel_bound", "power_ratio_base_bound",
    "rank_one_sum_bound", "rearrangement", "restrict_symbol", "schatten_norm",
    "schatten_partial_sums", "schur_apply", "selfadjoint_k_gap", "serialize",
    "sobolev_constant", "solve_theta", "spectral_decompose", "sum_quadrant_bound",
    "weak_lp_check",
]


def fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter importing this checkout's schurlab and
    return the JSON it prints."""
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


@pytest.mark.parametrize("module", ["schurlab", "schurlab.cli"])
def test_import_leaves_the_optional_submodules_unloaded(module):
    loaded = fresh_interpreter(
        f"import json, sys, {module}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('schurlab.'))))")
    assert not {f"schurlab.{name}" for name in OPTIONAL} & set(loaded)


def test_export_list_is_unchanged():
    assert schurlab.__all__ == EXPORTS


def test_every_export_resolves_and_is_listed():
    found = fresh_interpreter(
        "import json, schurlab\n"
        "print(json.dumps({name: [getattr(schurlab, name) is not None, name in dir(schurlab)]"
        " for name in schurlab.__all__}))")
    assert found == {name: [True, True] for name in EXPORTS}


def test_export_is_the_submodule_object():
    from schurlab import factorization, operators

    assert schurlab.make_kernel is factorization.make_kernel
    assert schurlab.operators is operators


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        schurlab.no_such_name
