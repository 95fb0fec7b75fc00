"""Rearrangements, Lorentz norms, and K-functionals on step profiles.

Everything here is an exact finite computation: the rearrangement of a
matrix is its singular-value step function, Lorentz integrals reduce to
closed sums, and K-functionals come from a grid search over coordinatewise
splits whose value tightens monotonically with the grid.
"""

import numpy as np

import schurlab as sl
from schurlab.interpolation import KFunctionalQuery, kfonc_ratios, weak_lp_ratios

rng = np.random.default_rng(5)

print("=== rearrangement and Lorentz norms ===")
a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
prof = sl.rearrangement(a)
print(f"  singular values: {np.round(prof.values, 4)}")
for (p, q) in ((1.0, 1.0), (1.0, np.inf), (2.0, 0.5)):
    print(f"  L_({p},{q}) norm: {sl.lorentz_norm(prof, p, q):.6f}")
print(f"  L_(p,p) equals the Schatten norm: "
      f"{sl.lorentz_norm(prof, 0.5, 0.5):.10f} vs {sl.schatten_norm(a, 0.5):.10f}")

print("\n=== K-functional against the classical (l1, linf) formula ===")
values = np.array([2.0, 1.2, 0.7, 0.1])
prof = sl.RearrangementProfile(values)
for t in (0.5, 1.5, 3.0):
    grid_val = sl.k_functional(prof, KFunctionalQuery(t, sl.SchattenIndex(1.0),
                                                      sl.SchattenIndex.INF), 256)
    whole = int(t)
    classical = values[:whole].sum() + (t - whole) * (values[whole] if whole < 4 else 0.0)
    print(f"  t = {t}: grid {grid_val:.6f}   classical {classical:.6f}")

print("\n=== concavity in t (a log sweep) ===")
q = lambda t: KFunctionalQuery(t, sl.SchattenIndex(0.5), sl.SchattenIndex(2.0))
ts = np.logspace(-1, 1, 9)
vals = [sl.k_functional(prof, q(t), 64) for t in ts]
print("  t:", np.round(ts, 3))
print("  K:", np.round(vals, 4))

print("\n=== selfadjoint splitting gap ===")
x = np.diag(rng.standard_normal(4))
for p0 in (1.0, 0.5):
    query = KFunctionalQuery(1.0, sl.SchattenIndex(p0), sl.SchattenIndex.INF)
    plain, sa = sl.selfadjoint_k_gap(x, query, 128)
    factor = 2.0 ** (max(1.0 / p0, 1.0) - 1.0)
    print(f"  p0 = {p0}: K = {plain:.6f}, selfadjoint K = {sa:.6f}, "
          f"two-sided factor {factor}")

print("\n=== positive-splitting gap for a positive operand ===")
# on singular-value profiles the optimal split is already coordinatewise
# nonnegative, so the constrained value coincides; measured, not asserted
g = rng.standard_normal((4, 4))
xp = g @ g.T / 4.0
profq = KFunctionalQuery(1.0, sl.SchattenIndex(0.5), sl.SchattenIndex(2.0))
plain, constrained = sl.selfadjoint_k_gap(xp, profq, 128)
print(f"  K = {plain:.6f}, positivity-constrained K = {constrained:.6f}, "
      f"gap {abs(plain - constrained):.2e}")

print("\n=== Hölder transfer through K-functionals and Lorentz norms ===")


def hermitian(dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


# the ratios take stacks, one pair being a pair of one-member stacks, and
# score every case of the list in one call: one row per member
x, y = sl.spectral_decompose(hermitian(4)), sl.spectral_decompose(hermitian(4))
ts = (0.1, 1.0, 10.0)
s = kfonc_ratios(x, y, 0.5, 2.0, theta=0.5, signed=True, ts=ts, grid=64)
for t, r in zip(ts, s.ratio[0]):
    print(f"  K-functional ratio at t = {t:>4}: {r:.4f}")
qs = (0.5, 1.0, np.inf)
s = weak_lp_ratios(x, y, p=1.0, qs=qs, theta=0.5, signed=True)
for qq, r in zip(qs, s.ratio[0]):
    print(f"  Lorentz ratio at q = {qq}: {r:.4f}")
