"""Certified multiplier bounds: Fourier factorization against random witnesses.

Smooth 2pi-periodic kernels factor into rank-one multipliers whose p-triangle
assembly yields explicit upper bounds with the fully instantiated constant
(2/(dp-1)+2)^(1/p) (pi/sqrt(3)+1) SobolevConstant. Random witness searches
give lower bounds; the sandwich never inverts. Dyadic rescaling transports
the unit-window certificate across all scales, and the shifted resolvent
kernel obeys the exact 1/a law.
"""

import numpy as np

import schurlab as sl
from schurlab.factorization import make_kernel

print("=== sandwich on the kernel catalog (p = 1, d = 2) ===")
rng = np.random.default_rng(3)
for name in ("cosine-product", "von-mises", "shifted-resolvent",
             "power-ratio-singular"):
    kernel = make_kernel(name)
    upper = sl.certified_pcb_bound(kernel, d=2, p=1.0)
    xs = np.sort(rng.uniform(0, 2 * np.pi, 16))
    sym = sl.SymbolMatrix(xs, xs, np.real(np.asarray(kernel.evaluator(xs[:, None], xs[None, :]))))
    lower = sl.multiplier_norm_lower(sym, 1.0, trials=6, seed=0).lower
    print(f"  {name:<22} lower {lower:9.4f}  <=  certified {upper:12.4f}")

print("\n=== truncated factorization of the windowed power-ratio kernel ===")
kernel = make_kernel("power-ratio-singular")
fact = sl.build_factorization(kernel, d=2, p=1.0, mode_cutoff=256)
print(f"  retained modes: {fact.alphas.size}, certified bound {fact.certified_bound:.3f}")
print(f"  truncation allowance {fact.truncation_error:.2e}, measured reconstruction "
      f"error {fact.reconstruction_error:.2e}")

print("\n=== dyadic transport of the unit-window certificate ===")
theta, p = 0.5, 0.5
base = sl.power_ratio_base_bound(theta, p)
print(f"  certified base bound (y in [1/2, 1), all x >= 0): {base:.3e}")
for k in (0, 2, 5):
    blk = sl.dyadic_block_bound(theta, p, k, base)
    print(f"  k = {k}: y in [{blk.y_interval[0]:.4f}, {blk.y_interval[1]:.4f}), "
          f"bound {blk.bound:.3e}")
gathered = sl.dyadic_block_bound(theta, p, -1, base)
print(f"  gathered y >= 1 block: {gathered.bound:.3e}")

print("\n=== exact 1/a scaling of the shifted resolvent ===")
for a in (1.0, 2.0, 10.0, 100.0):
    print(f"  a = {a:>5}: certified {sl.plus_kernel_bound(a, 0.5):.4e}   "
          f"(bound * a = {a * sl.plus_kernel_bound(a, 0.5):.4e})")

print("\n=== sum-quadrant bound scales as max(a,b)^(theta-1) ===")
for ab in ((1.0, 1.0), (2.0, 2.0), (4.0, 4.0)):
    print(f"  (a, b) = {ab}: {sl.sum_quadrant_bound(*ab, theta=0.5, p=0.5):.4e}")

print("\n=== exploratory: y >= 1 window at p = 1 across theta ===")
# no uniform-in-theta certificate is claimed here; lower bounds only
xs = np.linspace(1.0, 9.0, 24)
for theta in (0.1, 0.5, 0.9):
    f = sl.SignedPowerFunction(theta, signed=False)
    sym = sl.divided_difference_symbol(xs, xs + 0.5, f)
    lower = sl.multiplier_norm_lower(sym, 1.0, trials=4, seed=1).lower
    print(f"  theta = {theta}: witnessed lower bound {lower:.4f}")
