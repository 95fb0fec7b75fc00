import hashlib
import math

import numpy as np
import pytest

from schurlab.experiments import RatioSample


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


def reference_sample(num, den, inputs, parameters):
    """A ratio sample built the way the single-pair functions built theirs
    before they shared one path: SHA-256 over each input's shape and complex
    bytes, and ratio 0 for a denominator at or below 1e-300."""
    h = hashlib.sha256()
    for a in inputs:
        a = np.ascontiguousarray(np.asarray(a, dtype=complex))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    degenerate = den <= 1e-300
    return RatioSample(float(num), float(den), 0.0 if degenerate else float(num / den),
                       bool(degenerate), h.hexdigest(), parameters)
