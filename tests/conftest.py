import math
from collections import namedtuple

import numpy as np
import pytest

Sample = namedtuple("Sample", "numerator denominator ratio degenerate")


@pytest.fixture
def rng():
    return np.random.default_rng(20240311)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def random_psd(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g @ g.conj().T) / dim


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def exp_kernel_tail(p, k0, k1):
    """Closed-form sum_{k0 < k <= k1} lambda_k^p for the kernel exp(-|x - y|).

    Uses lambda_k = 2/((k - 1) pi)^2, summed exactly with math.fsum, and
    nothing from schurlab. The true eigenvalue is 2/((k - 1)^2 pi^2 + 5) to
    leading order, so the relative error is at most 5 p / (k0 pi)^2: below
    1e-10 at p <= 1 from k0 = 10^5, and too coarse for small k0.
    """
    if k0 < 1000 or k1 <= k0:
        raise ValueError("need 1000 <= k0 < k1")
    shifted = np.arange(k0, k1, dtype=float)  # k - 1 for k = k0 + 1 .. k1
    return (2.0 / math.pi**2) ** p * math.fsum(shifted ** (-2.0 * p))


def reference_sample(num, den):
    """(numerator, denominator, ratio, degenerate) of a ratio, built the way
    the single-pair functions built their samples before they shared one
    path: ratio 0 for a denominator at or below 1e-300."""
    degenerate = den <= 1e-300
    return Sample(float(num), float(den), 0.0 if degenerate else float(num / den),
                  bool(degenerate))


def sample(block, k=0, case=None):
    """Member k of a RatioBlock as Python scalars, for instance the one
    member of a block evaluated on one-member stacks; ``case`` picks the
    column of a (B, cases) block."""
    at = k if case is None else (k, case)
    return Sample(float(block.numerator[at]), float(block.denominator[at]),
                  float(block.ratio[at]), bool(block.degenerate[at]))
