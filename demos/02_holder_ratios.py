"""Hölder ratios of the power maps: the constant-1 regime and beyond.

For positive operators and p >= theta the ratio
||x^theta - y^theta||_{p/theta} / ||x - y||_p^theta never exceeds 1. For
sign-indefinite operands (the signed map) ratios above 1 appear, and the
seeded search hunts for the largest ones; commutator, anticommutator, and
norm-homogenizing map variants follow the same template. Every ratio is
evaluated on stacks: a block of pairs at once, or one pair as a one-member
stack.
"""

import numpy as np

import schurlab as sl
from schurlab.experiments import (anticommutator_ratios, bks_ratios, commutator_ratios,
                                  mazur_ratios)
from schurlab.operators import decompose_stack

rng = np.random.default_rng(11)


def psd(dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g @ g.conj().T) / dim


print("=== constant-1 inequality on positive pairs ===")
xs, ys = map(np.array, zip(*[(psd(4), psd(4)) for _ in range(2000)]))
block = bks_ratios(decompose_stack(xs), decompose_stack(ys), p=1.0, theta=0.5)
worst = block.ratio[~block.degenerate].max(initial=0.0)
print(f"  2000 positive pairs at (p, theta) = (1, 1/2): max ratio {worst:.6f} <= 1")

print("\n=== the signed map crosses 1 at p < 1 ===")
report = sl.estimate_constant(p=0.5, theta=0.5, signed=True,
                              dims=[2, 3, 4], trials=3000, seed=1)
print(f"  best witnessed ratio: {report.best.ratio:.4f}")
print(f"  per-dimension maxima: { {d: round(v, 4) for d, v in sorted(report.per_dim.items())} }")
print(f"  improvement history: {[(i, round(r, 4)) for i, r in report.history][:6]} ...")

print("\n=== commutator flavor ===")
x = 0.5 * (lambda g: g + g.conj().T)(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
b /= np.linalg.svd(b, compute_uv=False)[0]
s = commutator_ratios(sl.spectral_decompose(x), b[None], p=0.5, theta=0.5, signed=True)
print(f"  ||[f(x), b]|| / (||[x, b]||^theta ||b||^(1-theta)) = {s.ratio[0]:.4f}")

print("\n=== anticommutator flavor (identity case is exactly 2^(1-theta)) ===")
xp = sl.spectral_decompose(psd(3))
s = anticommutator_ratios(xp, xp, np.eye(3)[None], p=1.0, theta=0.5, sign=+1)
print(f"  y = x, b = 1, plus sign: ratio {s.ratio[0]:.12f}  (2^(1/2) = {2**0.5:.12f})")

print("\n=== norm-homogenizing map on non-normal inputs ===")
x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
s = mazur_ratios(x[None], y[None], p=1.0, q=2.0)
print(f"  ||M(x) - M(y)||_2 / ||x - y||_1^(1/2) = {s.ratio[0]:.4f}")

print("\n=== exploratory: how search maxima compose across exponents ===")
# the two-step route bounds the constant at theta1*theta2 by the product
# C(p/theta1, theta2) * C(p, theta1)^theta2; search maxima are only lower
# bounds on each factor, so this is logged, never asserted
p, t1, t2 = 0.5, 0.5, 0.5
direct = sl.estimate_constant(p, t1 * t2, True, [2, 3], 2000, seed=4).best.ratio
step1 = sl.estimate_constant(p, t1, True, [2, 3], 2000, seed=4).best.ratio
step2 = sl.estimate_constant(p / t1, t2, True, [2, 3], 2000, seed=4).best.ratio
print(f"  best(p={p}, theta={t1 * t2}) = {direct:.4f}")
print(f"  best(p={p / t1}, theta={t2}) * best(p={p}, theta={t1})^{t2} = "
      f"{step2 * step1**t2:.4f}")

print("\n=== ratio * (1 - theta) stays tame as theta -> 1 at p = inf ===")
for theta in (0.9, 0.99):
    r = sl.estimate_constant(sl.SchattenIndex.INF, theta, False,
                             dims=[2, 4], trials=400, seed=2)
    print(f"  theta = {theta}: best ratio {r.best.ratio:.4f}, "
          f"(1 - theta) * ratio = {(1 - theta) * r.best.ratio:.4f}")
