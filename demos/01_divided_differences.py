"""Divided differences make the power-map perturbation identity exact.

For Hermitian x, y with spectral projections P_i, Q_j, the map
T(z) = sum_ij m_ij P_i z Q_j with m the divided differences of f satisfies
f(x) - f(y) = T(x - y) exactly. This script builds the objects, checks the
identity at machine precision, and shows the integral representation of the
divided-difference quotient on the positive axis.
"""

import numpy as np

import schurlab as sl
from schurlab.operators import eigenvalue_groups

rng = np.random.default_rng(7)


def hermitian(dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


print("=== spectral decomposition ===")
# one-member stacks: entries (1, 5, 5), eigenvalues (1, 5), eigenvectors (1, 5, 5)
x = sl.spectral_decompose(hermitian(5))
y = sl.spectral_decompose(hermitian(5))
print(f"spec(x) = {np.round(x.eigenvalues[0], 3)}")
print(f"spec(y) = {np.round(y.eigenvalues[0], 3)}")
# the distinct eigenvalues, after merging those within GROUP_RTOL
spec_x, spec_y = eigenvalue_groups(x.eigenvalues[0])[0], eigenvalue_groups(y.eigenvalues[0])[0]

print("\n=== the identity f(x) - f(y) = T_m(x - y) ===")
for theta in (0.25, 0.5, 0.75):
    for signed in (False, True):
        f = sl.SignedPowerFunction(theta, signed)
        m = sl.divided_difference_symbol(spec_x, spec_y, f)
        lhs = sl.apply_calculus(x, f).entries[0] - sl.apply_calculus(y, f).entries[0]
        rhs = sl.schur_apply(m, x, y, x.entries[0] - y.entries[0])
        gap = np.abs(lhs - rhs).max()
        name = f"sgn(t)|t|^{theta}" if signed else f"|t|^{theta}"
        print(f"  f(t) = {name:<16}  max defect {gap:.3e}")

print("\n=== integral form of the quotient on the positive axis ===")
for (a, b, theta) in ((4.0, 1.0, 0.5), (2.0, 0.5, 0.3), (1.0, 1.0, 0.75)):
    quad = sl.divided_difference_integral(a, b, theta)
    direct = theta * a ** (theta - 1) if a == b else (a**theta - b**theta) / (a - b)
    print(f"  x={a}, y={b}, theta={theta}:  quadrature {quad:.12f}  closed form {direct:.12f}")

print("\n=== quasi-norm triangle inequality at p <= 1 ===")
p = 0.5
parts = [hermitian(4) for _ in range(3)]
defect = sl.p_triangle_defect(parts, p)
print(f"  sum ||a_k||_p^p - ||sum a_k||_p^p = {defect:.6f}  (nonnegative)")
