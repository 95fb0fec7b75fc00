"""Spectral functional calculus and Schatten quasi-norms on finite Hermitian
matrices.

All operands carry a cached eigendecomposition (descending eigenvalues). The
trace is the plain one, so ``norm_p(x)^p = sum(s_i^p)`` over the singular
values. Eigenvalues closer than ``GROUP_RTOL`` times the spectral radius are
merged into one spectral projection: divided-difference symbols are singular
across spuriously split eigenvalues.

The core works on (B, n, n) stacks: ``decompose_stack``, ``calculus_stack``
and ``schatten_norms`` run batched ``eigh``/``svd`` and check every member.
The single-matrix functions are their one-member calls, so a matrix gives
the same bits alone as inside a stack.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SchattenIndex",
    "SignedPowerFunction",
    "HermitianOperand",
    "InvariantViolation",
    "SpectralStack",
    "decompose_stack",
    "calculus_stack",
    "schatten_norms",
    "spectral_decompose",
    "apply_calculus",
    "schatten_norm",
    "p_triangle_defect",
]

HERMITIAN_RTOL = 1e-12     # asymmetry tolerance relative to max entry magnitude
RECONSTRUCT_RTOL = 1e-10   # U diag U* reconstruction tolerance vs spectral radius
GROUP_RTOL = 1e-8          # eigenvalue merge threshold relative to spectral radius
SV_NOISE_RTOL = 1e-13      # sub-roundoff singular values are noise; p < 1 amplifies them


class SchattenIndex:
    """Exponent of a Schatten quasi-norm, p in (0, inf].

    Infinity (the operator norm) is a distinguished state, not a float that
    participates in 1/p arithmetic. ``SchattenIndex.INF`` is the canonical
    instance.
    """

    __slots__ = ("_value",)

    INF: "SchattenIndex"

    def __init__(self, p):
        if isinstance(p, SchattenIndex):
            self._value = p._value
            return
        p = float(p)
        if math.isnan(p) or p <= 0.0:
            raise ValueError(f"Schatten index must be positive, got {p}")
        self._value = None if math.isinf(p) else p

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> float:
        if self._value is None:
            raise ValueError("the operator-norm index has no finite exponent")
        return self._value

    @property
    def triangle_constant(self) -> float:
        """Quasi-norm constant: 2^(1/p - 1) for p < 1, else 1."""
        if self._value is None or self._value >= 1.0:
            return 1.0
        return 2.0 ** (1.0 / self._value - 1.0)

    def __truediv__(self, theta: float) -> "SchattenIndex":
        theta = float(theta)
        if theta <= 0:
            raise ValueError("can only divide a Schatten index by a positive number")
        if self._value is None:
            return SchattenIndex.INF
        return SchattenIndex(self._value / theta)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SchattenIndex):
            try:
                other = SchattenIndex(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._value == other._value

    def __lt__(self, other) -> bool:
        other = as_index(other)
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self):
        return hash(("SchattenIndex", self._value))

    def __repr__(self):
        return "SchattenIndex(inf)" if self._value is None else f"SchattenIndex({self._value!r})"


SchattenIndex.INF = SchattenIndex(math.inf)


def as_index(p) -> SchattenIndex:
    return p if isinstance(p, SchattenIndex) else SchattenIndex(p)


def p_triangle_exponent(p) -> float:
    """p's finite value; p must be <= 1, where ||.||_p^p is subadditive."""
    q = as_index(p)
    if q.is_infinite or q.value > 1.0:
        raise ValueError(f"the p-triangle inequality and the bounds built on it "
                         f"require p <= 1, got p={'inf' if q.is_infinite else q.value}")
    return q.value


def _check_theta(theta) -> float:
    """theta as a float; the power maps need it finite and inside (0, 1)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie strictly inside (0, 1), got {theta}")
    return theta


def _check_int(name: str, value, minimum: int) -> int:
    """value as an int; rejects NaN, +-inf, fractions and values below minimum.

    float() first, so that int() never truncates 2.5 to 2; written so that
    NaN fails too. An integral float such as 3.0 gives the int 3.
    """
    if not (float(value).is_integer() and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SignedPowerFunction:
    """The homogeneous maps t -> |t|^theta (unsigned) or sgn(t)|t|^theta."""

    theta: float
    signed: bool = False

    def __post_init__(self):
        _check_theta(self.theta)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        v = np.abs(t) ** self.theta
        if self.signed:
            v = np.sign(t) * v
        return v if v.ndim else float(v)


class InvariantViolation(ArithmeticError):
    """A computed result contradicts an invariant the library verifies
    (a certificate below its witness, a failed self-check or root bracket).

    Distinct from ValueError, which reports bad input.
    """


def reject_members(bad, trials, message) -> None:
    """Raise ValueError(message(i)) for the first flagged member of a stack.

    ``trials`` labels the members (for instance the trial numbers of a
    sweep block); without labels a stack of several members is indexed by
    position and a single matrix is not named at all.
    """
    bad = np.asarray(bad)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    if trials is not None:
        prefix = f"trial {trials[i]}: "
    elif bad.size > 1:
        prefix = f"stack member {i}: "
    else:
        prefix = ""
    raise ValueError(prefix + message(i))


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _member_max(a: np.ndarray) -> np.ndarray:
    """Largest entry of each member of a (B, ...) stack; NaN propagates."""
    return a.reshape(a.shape[0], -1).max(axis=1, initial=0.0)


def _reject_non_finite(finite: np.ndarray, trials) -> None:
    reject_members(~finite, trials, lambda i: "matrix has non-finite entries")


def _check_finite(a: np.ndarray, trials=None) -> None:
    _reject_non_finite(np.isfinite(a).all(axis=(-2, -1)), trials)


def _check_hermitian(a: np.ndarray, trials=None) -> None:
    """Finite entries and asymmetry within HERMITIAN_RTOL, per stack member."""
    magnitude = _member_max(np.abs(a))  # NaN or inf exactly when an entry is
    _reject_non_finite(np.isfinite(magnitude), trials)
    scale = np.maximum(magnitude, 1e-300)
    asym = _member_max(np.abs(a - _adjoint(a)))
    reject_members(
        ~(asym <= HERMITIAN_RTOL * scale), trials,
        lambda i: (f"matrix is not Hermitian within tolerance: max asymmetry "
                   f"{asym[i]:.6e} exceeds {HERMITIAN_RTOL:.0e} * {scale[i]:.6e}"))


def _check_spectral(a: np.ndarray, vals: np.ndarray, vecs: np.ndarray, trials=None) -> None:
    """Descending eigenvalues, orthonormal eigenvectors and U diag U* = a.

    The comparisons are written so that a NaN anywhere fails them.
    """
    reject_members((vals[..., 1:] > vals[..., :-1]).any(axis=-1), trials,
                   lambda i: "eigenvalues must be sorted descending")
    orth = _member_max(np.abs(_adjoint(vecs) @ vecs - np.eye(vals.shape[-1])))
    reject_members(~(orth <= RECONSTRUCT_RTOL * 10), trials,
                   lambda i: "eigenvectors are not orthonormal")
    radius = np.maximum(np.abs(vals).max(axis=-1, initial=0.0), 1e-300)
    err = _member_max(np.abs((vecs * vals[..., None, :]) @ _adjoint(vecs) - a))
    reject_members(~(err <= RECONSTRUCT_RTOL * radius), trials,
                   lambda i: "spectral reconstruction does not match entries")


@dataclass(frozen=True, eq=False)
class SpectralStack:
    """B validated Hermitian n x n matrices with their spectra.

    ``entries`` is (B, n, n); ``eigenvalues`` is (B, n), descending per
    row; ``eigenvectors`` is (B, n, n) with the matching orthonormal
    columns. ``trials`` optionally labels the members in error messages.
    Every operation on a stack treats its members independently, so a
    member's results do not depend on the rest of the stack.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    trials: tuple | None = None

    @classmethod
    def of(cls, x: "HermitianOperand") -> "SpectralStack":
        """The one-member stack of an already validated operand."""
        return cls(x.entries[None], x.eigenvalues[None], x.eigenvectors[None])

    def operand(self, i: int) -> "HermitianOperand":
        return HermitianOperand(
            dim=self.entries.shape[-1], entries=self.entries[i],
            eigenvalues=self.eigenvalues[i], eigenvectors=self.eigenvectors[i],
            validated=True,
        )


def decompose_stack(matrices, trials=None) -> SpectralStack:
    """Batched eigendecomposition of a (B, n, n) stack of Hermitian matrices.

    Rejects non-finite and non-Hermitian members (naming the offending
    trial), eigen-solves the Hermitian parts, sorts each spectrum
    descending and checks every member's decomposition.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a (B, n, n) stack of square matrices, got shape {a.shape}")
    trials = None if trials is None else tuple(trials)
    _check_hermitian(a, trials)
    vals, vecs = np.linalg.eigh(0.5 * (a + _adjoint(a)))
    # eigh returns ascending eigenvalues: reversing sorts them descending
    vals = np.ascontiguousarray(vals[:, ::-1])
    vecs = np.ascontiguousarray(vecs[:, :, ::-1])
    _check_spectral(a, vals, vecs, trials)
    return SpectralStack(a, vals, vecs, trials)


def calculus_stack(x: SpectralStack, f: "SignedPowerFunction") -> SpectralStack:
    """U diag(f(x_i)) U* for every member: the power map in x's eigenbasis.

    The results commute with x and reuse its eigenvectors, so no second
    eigensolve is needed; eigenvalues are re-sorted descending and the
    result is symmetrised and checked like a decomposition.
    """
    vals = np.asarray(f(x.eigenvalues), dtype=float)
    b, n = vals.shape
    order = np.argsort(vals, axis=-1)[:, ::-1]
    members = np.arange(b)[:, None]
    vals = vals[members, order]
    u = x.eigenvectors[members[:, :, None], np.arange(n)[None, :, None], order[:, None, :]]
    entries = (u * vals[:, None, :]) @ _adjoint(u)
    entries = 0.5 * (entries + _adjoint(entries))
    _check_hermitian(entries, x.trials)
    _check_spectral(entries, vals, u, x.trials)
    return SpectralStack(entries, vals, u, x.trials)


def _schatten_from_singular(s: np.ndarray, p) -> np.ndarray:
    """Per-row (sum s_i^p)^(1/p) of singular values s (..., k).

    Values below SV_NOISE_RTOL times a row's largest are exact zeros.
    """
    q = as_index(p)
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1])
    top = s.max(axis=-1)
    if q.is_infinite:
        return top
    kept = np.where(s > SV_NOISE_RTOL * top[..., None], s, 0.0)
    return (kept ** q.value).sum(axis=-1) ** (1.0 / q.value)


def schatten_norms(matrices, p, trials=None) -> np.ndarray:
    """Schatten quasi-norm of every member of a (B, m, n) stack (batched SVD)."""
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3:
        raise ValueError(f"expected a (B, m, n) stack, got shape {a.shape}")
    _check_finite(a, trials)
    return _schatten_from_singular(np.linalg.svd(a, compute_uv=False), p)


@dataclass(eq=False)
class HermitianOperand:
    """A finite Hermitian matrix with cached spectral decomposition.

    ``eigenvalues`` are descending; ``eigenvectors`` hold the matching
    orthonormal columns. A hand-built operand is checked like a decomposed
    one; ``validated`` marks data that already passed those checks in a stack.
    """

    dim: int
    entries: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    validated: InitVar[bool] = False

    def __post_init__(self, validated: bool):
        self.entries = np.asarray(self.entries, dtype=complex)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=complex)
        if not validated:
            self._validate()

    def _validate(self):
        n = self.dim
        for name, arr, shape in (("entries", self.entries, (n, n)),
                                 ("eigenvalues", self.eigenvalues, (n,)),
                                 ("eigenvectors", self.eigenvectors, (n, n))):
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} does not match dim {n}")
        a = self.entries[None]
        _check_hermitian(a)
        _check_spectral(a, self.eigenvalues[None], self.eigenvectors[None])

    @property
    def spectral_radius(self) -> float:
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    # computed on first use and shared by every caller, so read-only
    @cached_property
    def _groups(self) -> list[slice]:
        """Column slices of the eigenvalue groups merged within GROUP_RTOL."""
        thresh = GROUP_RTOL * max(self.spectral_radius, 1e-300)
        groups, start = [], 0
        for i in range(1, self.dim):
            if self.eigenvalues[start] - self.eigenvalues[i] > thresh:
                groups.append(slice(start, i))
                start = i
        groups.append(slice(start, self.dim))
        return groups

    @cached_property
    def distinct_eigenvalues(self) -> np.ndarray:
        """Representative eigenvalue per merged group, descending."""
        vals = np.array([self.eigenvalues[g].mean() for g in self._groups])
        vals.flags.writeable = False
        return vals

    @cached_property
    def group_index(self) -> np.ndarray:
        """Group id of each eigenvector column."""
        idx = np.empty(self.dim, dtype=int)
        for gi, g in enumerate(self._groups):
            idx[g] = gi
        idx.flags.writeable = False
        return idx


def spectral_decompose(matrix) -> HermitianOperand:
    """Eigen-decompose a Hermitian matrix into a validated operand.

    The one-member case of decompose_stack: rejects non-Hermitian input
    (reporting the worst asymmetry) and non-finite entries.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return decompose_stack(a[None]).operand(0)


def apply_calculus(x: HermitianOperand, f: SignedPowerFunction) -> HermitianOperand:
    """U diag(f(x_i)) U*: the one-member case of calculus_stack."""
    return calculus_stack(SpectralStack.of(x), f).operand(0)


def singular_values(a) -> np.ndarray:
    """Descending singular values; rejects non-finite entries."""
    a = np.asarray(a, dtype=complex)
    _check_finite(a[None])
    return np.linalg.svd(a, compute_uv=False)


def schatten_norm(a, p) -> float:
    """(sum s_i^p)^(1/p) of a matrix; the operator norm max(s_i) at p = inf.

    Singular values below SV_NOISE_RTOL times the largest are treated as
    exact zeros. The one-member case of schatten_norms.
    """
    return float(schatten_norms(np.asarray(a, dtype=complex)[None], p)[0])


def p_triangle_defect(parts, p) -> float:
    """sum_k ||a_k||_p^p - ||sum_k a_k||_p^p  (nonnegative for p <= 1)."""
    pw = p_triangle_exponent(p)
    mats = [np.asarray(m, dtype=complex) for m in parts]
    if not mats:
        raise ValueError("need at least one part")
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ValueError(f"shape mismatch: {m.shape} vs {shape}")
    total = sum(schatten_norm(m, pw) ** pw for m in mats)
    whole = schatten_norm(sum(mats), pw) ** pw
    return float(total - whole)
