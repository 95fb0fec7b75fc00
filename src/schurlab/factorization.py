"""Certified multiplier bounds from Fourier factorizations of smooth kernels.

A 2pi-periodic kernel K with enough mixed smoothness factors as

    K(x, y) = f_0(x) e_0(y) + sum_{l != 0} l^(-d) f_l(x) e_l(y),

where the f_l are uniformly bounded whenever d exceeds 1/p. Each term is a
rank-one multiplier, so the p-triangle inequality turns the factorization
into an explicit upper bound on the multiplier norm: the prefactor
(2/(dp-1) + 2)^(1/p) dominates the lp norm of the coefficient sequence and
pi/sqrt(3) + 1 instantiates the Cauchy-Schwarz constant of the derivation,
making every certificate a concrete number.

Catalog kernels place the divided-difference and resolvent constructions on
the torus through the coordinate map u = x/2: ramp widths double, which the
mode-256 truncation tolerance requires, and sampled symbols remain
restrictions of the certified torus kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import (InvariantViolation, _check_int, _check_theta, as_index,
                        p_triangle_exponent)

__all__ = [
    "SmoothKernel",
    "RankOneFactorization",
    "DyadicBlock",
    "bump_function",
    "sobolev_constant",
    "certified_pcb_bound",
    "build_factorization",
    "dyadic_block_bound",
    "plus_kernel_bound",
    "sum_quadrant_bound",
    "power_ratio_base_bound",
    "kernel_catalog",
    "make_kernel",
]

CAUCHY_SCHWARZ_CONST = math.pi / math.sqrt(3.0)   # (sum_{k!=0} k^-2)^(1/2)
UNIVERSAL_CONST = CAUCHY_SCHWARZ_CONST + 1.0
RAMP_STEEPNESS = 8.0
COORDINATE_STRETCH = 0.5        # u = COORDINATE_STRETCH * x for catalog kernels
PERIODICITY_TOL = 1e-9
DEFAULT_MODE_CUTOFF = 256
# Certified values are published rounded up to this many significant digits,
# so a certificate does not move with the last bits of the FFT behind it.
PUBLISHED_DIGITS = 12
# Blocks of the streamed certificate; every size gives the same bits. The
# half-spectrum row transforms of the kernel's live rows, restricted to one
# group of column blocks, are kept, ROW_BLOCK rows to an array, and they set
# the certificate's memory. The column blocks are split into the fewest
# groups whose kept transforms fit in GROUP_BYTES with every grid row live:
# two groups at grid 2048 (at most 17 MiB each, 15 MiB for the 1793 live
# rows of power-ratio-window), one up to grid 1024. Each group is one row
# pass; the first samples every row and finds the live ones, the later ones
# sample only those. Everything else is a transient on top of the kept
# transforms: the evaluator sees at most ROW_BLOCK x SAMPLE_COLUMNS points
# at a time (its temporaries scale with that), and the column pass
# transforms COLUMN_BLOCK columns at a time in one reused buffer per part.
# At grid 2048 (2-vCPU x86 VM, one BLAS thread, no bytecode cache)
# `multiplier-bound` on power-ratio-window peaked at 49.4 MB RSS with two
# groups, 62.8 MB with one pass over all n/2 + 1 columns and 89.9 MB with
# full-length row transforms (medians of 10 perfbench runs each).
ROW_BLOCK = 64
SAMPLE_COLUMNS = 512
COLUMN_BLOCK = 32
GROUP_BYTES = 24 << 20


# ----------------------------------------------------------------------------
# mollifier ramps and bumps
# ----------------------------------------------------------------------------

def _ramp(t):
    """C-infinity ramp on [-1, 1]: expit(RAMP_STEEPNESS * t / (1 - t^2))."""
    t = np.asarray(t, dtype=float)
    inner = (t > -1.0) & (t < 1.0)
    z = np.where(inner, RAMP_STEEPNESS * t / np.where(inner, 1.0 - t * t, 1.0), 0.0)
    z = np.clip(z, -700.0, 700.0)
    # expit from one exp: 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below
    e = np.exp(-np.abs(z))
    v = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return np.where(t <= -1.0, 0.0, np.where(t >= 1.0, 1.0, v))


# sup |d^k ramp / dt^k| on [-1, 1] for k = 0..8: the exact symbolic
# derivative sampled on 200001 points with 2% slack, so the certified
# constants inherit that sampling resolution (tests/test_factorization.py
# recomputes them symbolically)
RAMP_DERIVATIVE_SUPS = (
    1.0, 2.04, 6.085704503813619, 53.040000000000006, 368.7843311265627,
    4683.840000000026, 49682.87423516212, 836791.6799999689, 12179622.14349697,
)


@dataclass(frozen=True)
class Bump:
    """Smooth plateau: 1 on ``flat``, 0 outside ``support``, ramps between."""

    flat: tuple[float, float]
    support: tuple[float, float]

    def __call__(self, x):
        fl, fr = self.flat
        sl, sr = self.support
        x = np.asarray(x, dtype=float)
        up = _ramp(2.0 * (x - sl) / (fl - sl) - 1.0)
        dn = _ramp(2.0 * (sr - x) / (sr - fr) - 1.0)
        v = up * dn
        return v if v.ndim else float(v)

    def derivative_sup(self, order: int) -> float:
        """Upper bound on sup |d^order bump|; ramps are disjoint so the chain
        rule only rescales the universal ramp constants."""
        if not 0 <= order < len(RAMP_DERIVATIVE_SUPS):
            raise ValueError(
                f"ramp derivative constants are tabulated up to order "
                f"{len(RAMP_DERIVATIVE_SUPS) - 1}, got order {order}"
            )
        wl = self.flat[0] - self.support[0]
        wr = self.support[1] - self.flat[1]
        return max((2.0 / wl) ** order, (2.0 / wr) ** order) * RAMP_DERIVATIVE_SUPS[order]


def bump_function(flat_interval, support_interval) -> Bump:
    """Mollifier plateau with all derivatives vanishing at the support ends."""
    fl, fr = map(float, flat_interval)
    sl, sr = map(float, support_interval)
    if not (sl < fl <= fr < sr):
        raise ValueError(
            f"flat interval [{fl}, {fr}] must lie strictly inside support [{sl}, {sr}]"
        )
    return Bump((fl, fr), (sl, sr))


# ----------------------------------------------------------------------------
# kernels on the torus
# ----------------------------------------------------------------------------

def _blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of ``size`` indices covering range(n); the last
    one is shorter when ``size`` does not divide n."""
    return [slice(start, min(start + size, n)) for start in range(0, n, size)]


def _mode_numbers(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, 1.0 / n).astype(int)


def _on_grid(fn, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """fn(x_i, y_j) for every pair, by broadcasting the two axes; an
    evaluator that ignores an axis is broadcast (not copied) to
    (x.size, y.size). Real values stay float64 (half the memory of
    complex128); complex values are complex128."""
    vals = np.asarray(fn(x[:, None], y[None, :]))
    vals = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
    if vals.shape != (x.size, y.size):
        vals = np.broadcast_to(vals, (x.size, y.size))
    return vals


@dataclass(eq=False)
class SmoothKernel:
    """A 2pi-periodic kernel sampled on a power-of-two grid."""

    evaluator: object
    grid_size: int = 1024
    name: str = ""

    def __post_init__(self):
        n = self.grid_size = _check_int("grid_size", self.grid_size, 64)
        if n & (n - 1):
            raise ValueError(f"grid_size must be a power of two >= 64, got {n}")
        self._check_periodicity()

    def _check_periodicity(self):
        probe = np.linspace(0.0, 2.0 * np.pi, 37)
        left = np.asarray(self.evaluator(np.zeros_like(probe), probe), dtype=complex)
        right = np.asarray(self.evaluator(np.full_like(probe, 2.0 * np.pi), probe), dtype=complex)
        gap_x = np.abs(left - right).max()
        bottom = np.asarray(self.evaluator(probe, np.zeros_like(probe)), dtype=complex)
        top = np.asarray(self.evaluator(probe, np.full_like(probe, 2.0 * np.pi)), dtype=complex)
        gap_y = np.abs(bottom - top).max()
        # each gap compared on its own: max(0.0, nan) is 0.0, and NaN must fail
        if not (gap_x <= PERIODICITY_TOL and gap_y <= PERIODICITY_TOL):
            raise ValueError(
                f"kernel {self.name or '<anonymous>'} is not 2pi-periodic: "
                f"seam gaps ({gap_x:.3e}, {gap_y:.3e})"
            )

    def grid(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size

    def _sample_rows(self, rows: slice) -> np.ndarray:
        """K(x_i, x_j) for the grid rows i in ``rows`` and every column j,
        as one contiguous array; the evaluator sees SAMPLE_COLUMNS columns
        at a time, so its temporaries stay that small. Float64 for a real
        evaluator, complex128 for a complex one."""
        x = self.grid()
        xs = x[rows]
        out = None
        for part in _blocks(x.size, SAMPLE_COLUMNS):
            values = _on_grid(self.evaluator, xs, x[part])
            if out is None:
                out = np.empty((xs.size, x.size), dtype=values.dtype)
            # same_kind: a complex part after a real one fails instead of losing its imaginary part
            np.copyto(out[:, part], values, casting="same_kind")
            del values  # not held while the next part is evaluated
        return out

    def samples(self) -> np.ndarray:
        """K(x_i, x_j) on the whole grid, built from the ROW_BLOCK row blocks
        of ``_sample_rows`` and not cached: float64 for a real evaluator,
        complex128 for a complex one. The certificate path never calls it."""
        return np.concatenate([self._sample_rows(block)
                               for block in _blocks(self.grid_size, ROW_BLOCK)])

    def _row_spectra(self, columns: slice, runs=None, parts: int = 1) -> tuple[list, list]:
        """(kept, runs). kept holds, per part of the kernel (the real part,
        then the imaginary part of a complex kernel; ``parts`` of them at
        least), (grid rows, rfft of those rows restricted to ``columns``)
        for each run of rows with a sample other than +0.0. runs lists the
        runs of rows where any part has such a sample, each within one
        ROW_BLOCK block of rows. Without ``runs`` every row is sampled,
        ROW_BLOCK rows at a time; given the runs of an earlier call, only
        those rows are."""
        # a real block's imaginary part is +0.0 throughout, so it keeps none
        kept, found = ([], []), []
        for block in _blocks(self.grid_size, ROW_BLOCK) if runs is None else runs:
            samples = self._sample_rows(block)
            if runs is None:
                found += [_shift(run, block.start) for run in _live_runs(samples)]
            if np.iscomplexobj(samples):
                parts, split = 2, (samples.real.copy(), samples.imag.copy())
            else:
                split = (samples,)
            for part, spectra in zip(split, kept):
                for run in _live_runs(part):
                    # a copy unless the group has every column: a view
                    # of some columns would hold all n/2 + 1
                    spectra.append((_shift(run, block.start), np.ascontiguousarray(
                        np.fft.rfft(part[run], axis=1)[:, columns])))
            del samples, split, part  # not held while the next block is sampled
        return list(kept[:parts]), found if runs is None else runs

    def coefficient_blocks(self):
        """Yield (cols, block) for blocks of at most COLUMN_BLOCK grid
        columns, block[k, j] = alpha_{k, cols[j]}: the bits of
        np.fft.rfft2(samples) / n^2 for the columns 0..n/2, and each other
        column -l from its mirror, alpha_{-k,-l} = conj alpha_{k,l}. A
        complex kernel is the sum c_re + i c_im of its real and imaginary
        parts, each transformed so. The blocks cover the grid once, each
        block of columns 0..n/2 followed by the block of its mirrored
        columns. The yielded array is a buffer that a later block
        overwrites: copy what must outlive a step.

        The column blocks of 0..n/2 come in the consecutive groups of
        ``_column_groups``, one row pass each. A pass samples ROW_BLOCK rows
        at a time and keeps, for each part, the np.fft.rfft of the rows with
        a sample other than +0.0, restricted to the group's columns, one
        complex array per run of consecutive such rows, with the slice of
        grid rows it holds. The first pass samples every row and records
        the live runs; the later passes sample only those. Any other row has
        the rfft of a zero row, which fills each column block before the
        kept rows are gathered into it and transformed along axis 0. No
        coefficient grid is held: the peak is one group's kept spectra plus
        one row block of samples and the evaluator's temporaries, or plus
        the column buffers and their consumer's."""
        runs, parts = None, 1
        for group in _column_groups(self.grid_size):
            kept, runs = self._row_spectra(slice(group[0].start, group[-1].stop), runs, parts)
            parts = len(kept)
            yield from _column_pass(self.grid_size, group, kept)
            del kept  # not held while the next group's rows are transformed

    def coefficients(self) -> np.ndarray:
        """2D Fourier coefficients in the (2pi)^-2 integral convention, as a
        whole complex128 grid assembled from ``coefficient_blocks``: entry
        [k mod n, l mod n] is alpha_{k,l}, with the bits of the blocks
        (rfft2(samples) / n^2 and its mirror, per part), exact to rounding
        for trigonometric polynomials within the grid's Nyquist range. Not
        cached: each call samples the kernel and runs every FFT again. Its
        peak holds the n^2 output grid and one group's kept row spectra at
        once (64 + 17 MiB at most for a real kernel at n = 2048).
        No certificate calls it; it stays as the whole-grid reference of the
        tests and as the FFT layer the profiler times."""
        n = self.grid_size
        coeffs = np.empty((n, n), dtype=complex)
        for cols, block in self.coefficient_blocks():
            coeffs[:, cols] = block
        return coeffs


def _combine_parts(parts: list[np.ndarray]) -> np.ndarray:
    """A real kernel's one part as it is; for a complex kernel, a new array
    c_re + i c_im from the coefficients of its real and imaginary parts."""
    if len(parts) == 1:
        return parts[0]
    out = parts[0].copy()
    out.real -= parts[1].imag
    out.imag += parts[1].real
    return out


def _column_groups(n: int) -> list[list[slice]]:
    """The COLUMN_BLOCK blocks of the half-spectrum columns 0..n/2, in the
    fewest consecutive groups of near-equal length whose row transforms,
    with all n rows live, fit in GROUP_BYTES (one block at least)."""
    blocks = _blocks(n // 2 + 1, COLUMN_BLOCK)
    most = max(1, GROUP_BYTES // (n * COLUMN_BLOCK * np.dtype(complex).itemsize))
    size = -(-len(blocks) // -(-len(blocks) // most))
    return [blocks[start:start + size] for start in range(0, len(blocks), size)]


def _column_pass(n: int, group: list[slice], kept: list):
    """The coefficient blocks of one column group, each followed by its
    mirror, as ``SmoothKernel.coefficient_blocks`` yields them, from the
    group's kept row spectra (per part, (grid rows, rfft columns of the
    group))."""
    zero_row = np.fft.rfft(np.zeros(n))  # not all +0: some terms are -0.0
    mirror = -np.arange(n) % n  # row k of column -l reads row -k of column l
    bufs = [np.empty((n, COLUMN_BLOCK), dtype=complex) for _ in kept]
    for cols in group:
        halves = [buf[:, :cols.stop - cols.start] for buf in bufs]
        within = _shift(cols, -group[0].start)
        for half, spectra in zip(halves, kept):
            half[:] = zero_row[cols]
            for rows, spectrum in spectra:
                half[rows] = spectrum[:, within]
            np.fft.fft(half, axis=0, out=half)
            half /= n**2
        yield cols, _combine_parts(halves)
        # then the columns -l for 0 < l < n/2 of this block, in grid
        # order, written over the buffers they mirror
        lo, hi = max(cols.start, 1), min(cols.stop, n // 2)
        if hi > lo:
            flipped = np.ix_(mirror, np.arange(hi - 1, lo - 1, -1) - cols.start)
            mirrored = [buf[:, :hi - lo] for buf in bufs]
            for buf, part in zip(bufs, mirrored):
                np.conjugate(buf[flipped], out=part)
            yield slice(n - hi + 1, n - lo + 1), _combine_parts(mirrored)


def _shift(span: slice, offset: int) -> slice:
    return slice(span.start + offset, span.stop + offset)


def _live_runs(samples: np.ndarray) -> list[slice]:
    """Slices of the consecutive rows with a sample other than +0.0. A -0.0
    counts: its rfft differs from that of a +0.0 row in the sign of zero
    terms. +0.0 is the one float64 whose bits are all zero; the samples are
    contiguous float64."""
    live = samples.view(np.uint64).reshape(samples.shape[0], -1).any(axis=1)
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False)).tolist()
    return [slice(start, stop) for start, stop in zip(edges[::2], edges[1::2])]


def _round_up(value: float) -> float:
    """The least PUBLISHED_DIGITS-digit decimal >= value, as its nearest
    double. That double is still >= value: value is a double itself, and
    rounding to nearest is monotone. So a rounded upper bound stays one."""
    # imported here, after the coefficient stream's peak: decimal adds 0.4 MB
    from decimal import ROUND_CEILING, Context, Decimal

    return float(Context(prec=PUBLISHED_DIGITS, rounding=ROUND_CEILING).plus(Decimal(value)))


def _require_finite(kernel: SmoothKernel, what: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"kernel {kernel.name or '<anonymous>'} has a non-finite {what}: {value}")


def _weighted_power(block: np.ndarray, weights: list[np.ndarray]) -> np.ndarray:
    """Row i is weights[i] @ |block|^2 for a column block of the
    coefficients; the bits equal the whole-grid products. BLAS sums a
    column in an order that depends on the width of the product (31 or 1
    columns give other bits than 32), so |block|^2 is padded with zero
    columns to at least COLUMN_BLOCK."""
    width = block.shape[1]
    power = np.zeros((block.shape[0], max(width, COLUMN_BLOCK)))
    np.abs(block, out=power[:, :width])
    power *= power
    return np.array([w @ power for w in weights])[:, :width]


def sobolev_constant(kernel: SmoothKernel, d: int) -> float:
    """Four-term smoothness constant

        ||d^(d+1)K/dy^d dx||_2 + ||d^d K/dy^d||_2 + ||dK/dx||_2 + ||K||_2

    on the normalized torus, by spectral differentiation of the Fourier
    coefficients, streamed one column block at a time.
    """
    d = _check_int("d", d, 1)
    needed = [(1, d), (0, d), (1, 0), (0, 0)]
    # ||d^(a+b)K/dx^a dy^b||_2^2 = sum_kl |k|^2a |alpha_kl|^2 |l|^2b
    n = kernel.grid_size
    modes = np.abs(_mode_numbers(n).astype(float))
    weights = {order: modes ** (2 * order) for order in {0, 1, d}}
    power = np.empty((2, n))
    for cols, block in kernel.coefficient_blocks():
        power[:, cols] = _weighted_power(block, [weights[1], weights[0]])
    rows = dict(zip((1, 0), power))
    constant = float(sum(float(np.sqrt(rows[a] @ weights[b])) for a, b in needed))
    _require_finite(kernel, "Sobolev constant", constant)
    return constant


def sobolev_order(p, d: int | None = None) -> int:
    """The Sobolev order of a certificate at index p, as an int: d, or
    ceil(1/p) + 1 when d is None. Rejects p > 1, a d that is not an integer
    >= 1, and d <= 1/p, where the coefficients l^-d of the factorization
    leave l^p."""
    pv = p_triangle_exponent(p)
    if d is None:
        return int(math.ceil(1.0 / pv)) + 1
    d = _check_int("d", d, 1)
    if d * pv <= 1.0:
        raise ValueError(
            f"the Sobolev order must satisfy d > 1/p (got d={d}, 1/p={1.0 / pv})"
        )
    return d


def _prefactor(d: int, p) -> float:
    """(2/(dp-1) + 2)^(1/p) for an order d that ``sobolev_order`` accepted at p."""
    pv = as_index(p).value
    return (2.0 / (d * pv - 1.0) + 2.0) ** (1.0 / pv)


def certified_pcb_bound(kernel: SmoothKernel, d: int, p) -> float:
    """(2/(dp-1) + 2)^(1/p) * (pi/sqrt(3) + 1) * sobolev_constant(kernel, d),
    rounded up to PUBLISHED_DIGITS significant digits."""
    d = sobolev_order(p, d)
    return _round_up(_prefactor(d, p) * UNIVERSAL_CONST * sobolev_constant(kernel, d))


# ----------------------------------------------------------------------------
# explicit factorizations
# ----------------------------------------------------------------------------

@dataclass(eq=False)
class RankOneFactorization:
    """Truncated rank-one expansion of a kernel with a certified bound.

    ``alphas[i]`` is 1 for the constant mode and l^-d otherwise;
    ``f_samples[i]`` holds f_l on the x-grid; ``g_labels[i]`` is the Fourier
    mode l so g_i(y) = exp(i l y). ``certified_bound`` combines the rank-one
    bounds |alpha_l| sup|f_l| of the retained terms with the tail allowance
    in p-th powers (each factor normalized to unit sup), which dominates the
    rank-one sum bound of the data and never increases under cutoff
    refinement; ``truncation_error`` is the plain-sum tail, an upper bound on
    the sup-norm reconstruction gap; both are rounded up to PUBLISHED_DIGITS
    significant digits. ``reconstruction_error`` is that gap,
    max |reconstruct() - samples| on the grid, measured by the self-check of
    ``build_factorization``.
    """

    d: int
    p: object
    alphas: np.ndarray
    f_samples: np.ndarray
    g_labels: np.ndarray
    certified_bound: float
    truncation_error: float
    grid_size: int
    reconstruction_error: float | None = None

    def f_at(self, x) -> np.ndarray:
        """Evaluate every f_l at arbitrary points (trig interpolation of f_samples)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        modes = _mode_numbers(self.grid_size)
        phases = np.exp(1j * np.outer(x, modes))
        return phases @ (np.fft.fft(self.f_samples, axis=1).T / self.grid_size)

    def g_at(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.exp(1j * np.outer(y, self.g_labels.astype(float)))

    def _grid_phases(self) -> np.ndarray:
        """e_l(y_j) = exp(i l y_j) for every retained mode l and grid point
        y_j, built in place in one complex array. The argument has the bits
        of 1j * t for t = l y_j, (0 t - 0) + (0 + t) i: a zero with the sign
        of t, and t with -0.0 made +0.0; the signs of these zeros reach the
        phases."""
        phases = np.empty((self.g_labels.size, self.grid_size), dtype=complex)
        np.multiply.outer(self.g_labels.astype(float),
                          2.0 * np.pi * np.arange(self.grid_size) / self.grid_size,
                          out=phases.imag)
        np.copysign(0.0, phases.imag, out=phases.real)
        phases.imag += 0.0
        return np.exp(phases, out=phases)

    def grid_rows(self, rows: slice, phases: np.ndarray) -> np.ndarray:
        """sum_l alpha_l f_l(x_i) e_l(y_j) for the grid rows i in ``rows``
        and every grid column j, given ``phases = _grid_phases()``."""
        return (self.f_samples.T[rows] * self.alphas) @ phases

    def reconstruct(self) -> np.ndarray:
        """sum_l alpha_l f_l(x_i) e_l(y_j) on the whole grid."""
        return self.grid_rows(slice(None), self._grid_phases())

    def hadamard_action(self, xs, ys, a: np.ndarray) -> np.ndarray:
        """Apply the multiplier as the sum of its rank-one Hadamard actions.

        Accumulates diag(f_l) a diag(e_l) term by term in fixed mode order,
        independently of the direct entrywise route.
        """
        a = np.asarray(a, dtype=complex)
        fx = self.f_at(xs)
        gy = self.g_at(ys)
        out = np.zeros_like(a)
        for i in range(self.alphas.size):
            out += self.alphas[i] * (fx[:, i:i + 1] * a * gy[:, i][None, :])
        return out

    def to_json(self) -> dict:
        """The whole `factorize` result, for serialize.dumps_canonical: the
        real and imaginary parts of f_samples stay 1-D float64 arrays, which
        it encodes without a list of Python floats."""
        f = np.asarray(self.f_samples)
        return {
            "d": int(self.d),
            "alphas": np.asarray(self.alphas, dtype=float).tolist(),
            "f_samples": {
                "shape": list(f.shape),
                "re": f.real.ravel(),
                "im": f.imag.ravel(),
            },
            "g_labels": [int(v) for v in self.g_labels],
            "certified_bound": float(self.certified_bound),
            "truncation_error": float(self.truncation_error),
            "grid_size": int(self.grid_size),
            "reconstruction_error": self.reconstruction_error,
            "p": as_index(self.p).value,  # finite: a certificate needs p <= 1
        }


def _retained_modes(cutoff: int, n: int) -> list[int]:
    # fixed deterministic order: 0, 1, -1, 2, -2, ...
    top = min(cutoff, n // 2 - 1)
    out = [0]
    for l in range(1, top + 1):
        out.extend((l, -l))
    return out


def build_factorization(kernel: SmoothKernel, d: int, p,
                        mode_cutoff: int = DEFAULT_MODE_CUTOFF) -> RankOneFactorization:
    """Truncate the smooth-kernel factorization at |l| <= mode_cutoff.

    Requires d > 1/p. The tail allowance bounds every discarded resolved
    mode via the Cauchy-Schwarz estimate on the mixed-derivative
    coefficients, so reconstruction of the samples is certified to within
    ``truncation_error`` (plus rounding).
    """
    d = sobolev_order(p, d)
    mode_cutoff = _check_int("mode_cutoff", mode_cutoff, 1)
    n = kernel.grid_size
    modes = _mode_numbers(n)
    kvec = modes.astype(float)

    retained = _retained_modes(mode_cutoff, n)
    alphas = np.array([1.0 if l == 0 else 1.0 / float(l) ** d for l in retained])
    # grid column l mod n -> (retained slot, scale l^d)
    slots = {l % n: (i, 1.0 if l == 0 else float(l) ** d) for i, l in enumerate(retained)}
    cols = np.empty((n, len(retained)), dtype=complex)
    k_squared = kvec**2
    col_k_weighted = np.empty(n)  # per column l: sqrt(sum_k k^2 |alpha_kl|^2)
    row0 = np.empty(n, dtype=complex)
    for span, block in kernel.coefficient_blocks():
        for j in range(span.start, span.stop):
            if j in slots:
                i, scale = slots[j]
                cols[:, i] = block[:, j - span.start] * scale
        col_k_weighted[span] = np.sqrt(_weighted_power(block, [k_squared])[0])
        row0[span] = block[0]
    # f_l = n * ifft(column l): every column in one call, written row-wise
    f_samples = np.empty((len(retained), n), dtype=complex)
    np.fft.ifft(cols, axis=0, out=f_samples.T)
    del cols  # not held while the phases are built for the self-check
    f_samples *= n
    f_sups = np.abs(f_samples).max(axis=1)

    retained_set = set(retained)
    pv = as_index(p).value
    tail = 0.0       # plain sum: bounds the sup-norm reconstruction gap
    tail_power = 0.0  # p-power sum: enters the certificate
    for idx, l in enumerate(modes):
        if l in retained_set or l == 0:
            continue
        term = CAUCHY_SCHWARZ_CONST * col_k_weighted[idx] + abs(row0[idx])
        tail += term
        tail_power += term**pv
    # each term alpha_l f_l (x) e_l is rank one with bound |alpha_l| sup|f_l|;
    # combining retained and discarded terms by the p-triangle inequality keeps
    # the certificate exactly nonincreasing under cutoff refinement
    retained_power = float(np.sum((np.abs(alphas) * f_sups) ** pv))
    certified = (retained_power + tail_power) ** (1.0 / pv)
    # a non-finite tail term leaves tail_power, so the certificate, non-finite too
    _require_finite(kernel, "certified bound", certified)

    fact = RankOneFactorization(
        d=d, p=as_index(p), alphas=alphas, f_samples=f_samples,
        g_labels=np.array(retained, dtype=int), certified_bound=_round_up(certified),
        truncation_error=_round_up(tail), grid_size=n,
    )
    # max |reconstruction - samples| and max |samples|, one block of rows at a time
    phases = fact._grid_phases()
    gap, scale = 0.0, 1.0
    for block in _blocks(n, ROW_BLOCK):
        samples = kernel._sample_rows(block)
        diff = fact.grid_rows(block, phases)
        diff -= samples
        gap = max(gap, float(np.abs(diff).max()))
        scale = max(scale, float(np.abs(samples).max()))
    fact.reconstruction_error = gap
    if fact.reconstruction_error > tail + 1e-9 * scale:
        raise InvariantViolation(
            f"factorization self-check failed: reconstruction gap "
            f"{fact.reconstruction_error:.3e} exceeds tail allowance {tail:.3e}"
        )
    return fact


# ----------------------------------------------------------------------------
# dyadic assembly
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicBlock:
    """One dyadic cell of the quadrant decomposition with its bound."""

    k: int
    x_interval: tuple[float, float]
    y_interval: tuple[float, float]
    bound: float


def dyadic_block_bound(theta: float, p, k: int, base_bound: float) -> DyadicBlock:
    """Rescale a certified window bound across the dyadic decomposition.

    For k >= 0 the block at y in [2^-k-1, 2^-k) costs exactly
    2^(-k(theta-1)) * base_bound by homogeneity of the divided difference;
    k = -1 gathers every block with y >= 1 through the p-triangle series
    (sum_j 2^(j p (theta-1)))^(1/p).
    """
    _check_theta(theta)
    pv = p_triangle_exponent(p)
    # written so that NaN fails too; an infinite bound certifies nothing
    if not 0 <= base_bound < math.inf:
        raise ValueError(f"base_bound must be nonnegative and finite, got {base_bound}")
    k = _check_int("k", k, -1)
    if k >= 0:
        bound = 2.0 ** (-k * (theta - 1.0)) * base_bound
        return DyadicBlock(k, (0.0, math.inf), (2.0 ** (-k - 1), 2.0 ** (-k)), bound)
    ratio = 2.0 ** (pv * (theta - 1.0))
    gathered = base_bound * (1.0 / (1.0 - ratio)) ** (1.0 / pv)
    return DyadicBlock(-1, (0.0, math.inf), (1.0, math.inf), gathered)


# ----------------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------------

def _wrap_pi(x):
    return (np.asarray(x, dtype=float) + np.pi) % (2.0 * np.pi) - np.pi


def _wrap_2pi(x):
    return np.asarray(x, dtype=float) % (2.0 * np.pi)


# torus-coordinate bumps for the stretched constructions (u = x / 2)
_PHI_SING = bump_function((0.0, 1.0), (-0.5, 1.5))        # u-flat [0, 1/2], u-supp [-1/4, 3/4]
_PSI_SING = bump_function((2.0, 4.0), (1.75, 6.0))        # u-flat [1, 2],   u-supp [7/8, 3]
_PHI_WINDOW = bump_function((1.0, 4.0), (0.5, 6.0))       # u-flat [1/2, 2], u-supp [1/4, 3]
_PHI_PLUS = bump_function((0.0, 2.0), (-0.5, 2.5))        # u-flat [0, 1],   u-supp [-1/4, 5/4]


def _power_diff(u, v, theta):
    """(u^theta - v^theta)/(u - v) for positive arguments, stable near u = v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gap = np.asarray(u - v)
    ratio = np.asarray(u**theta - v**theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio /= gap  # NaN where u = v: the midpoint derivative overwrites it
    # the midpoint derivative only where it is used (the diagonal band);
    # near entries have |gap| <= 1e-6 * top, so off the band one compare
    # with that scalar shows there are none (fmax skips NaN arguments,
    # whose entries are never near)
    gap = np.abs(gap, out=gap)
    top = np.fmax(np.fmax.reduce(u, axis=None), np.fmax.reduce(v, axis=None))
    if (gap <= 1e-6 * top).any():
        near = gap <= 1e-6 * np.maximum(u, v)
        u, v = np.broadcast_arrays(u, v)
        ratio[near] = theta * (0.5 * (u[near] + v[near])) ** (theta - 1.0)
    return ratio


# The bumped kernels evaluate each bump on its own axis and let the product
# broadcast; the singular quotients are taken only where the bumps are nonzero.

def _singular_ratio_kernel(x, y):
    xw, yw = _wrap_pi(x), _wrap_2pi(y)
    num = _PHI_SING(xw) * _PSI_SING(yw)
    gap = COORDINATE_STRETCH * (xw - yw)
    return np.divide(num, gap, out=np.zeros_like(num), where=num != 0)


def _window_ratio_kernel(theta):
    _check_theta(theta)

    def evaluate(x, y):
        xw, yw = _wrap_2pi(x), _wrap_2pi(y)
        w = _PHI_WINDOW(xw) * _PHI_WINDOW(yw)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = _power_diff(COORDINATE_STRETCH * xw, COORDINATE_STRETCH * yw, theta)
            ratio *= w  # inf * 0 = NaN off the window, zeroed next
        ratio[w == 0] = 0.0
        return ratio
    return evaluate


def _plus_resolvent_kernel(a):
    # the bumps are supported on u in (-1/4, 5/4), so the denominator
    # a + u_x + u_y is positive on the support exactly when a >= 1/2;
    # written so that NaN fails too. At a = inf the kernel would be all 0.
    if not a >= 0.5:
        raise ValueError(f"the shifted-resolvent kernel needs a >= 0.5, got a = {a}")
    if not math.isfinite(a):
        raise ValueError(f"kernel parameter a must be finite, got {a}")

    def evaluate(x, y):
        xw, yw = _wrap_pi(x), _wrap_pi(y)
        w = _PHI_PLUS(xw) * _PHI_PLUS(yw)
        shift = a + COORDINATE_STRETCH * (xw + yw)
        return np.divide(w, shift, out=np.zeros_like(w), where=w != 0)
    return evaluate


def kernel_catalog() -> dict:
    """Named builders for the preloaded kernels; see ``make_kernel``. A
    builder's keyword-only arguments are its kernel's parameters, with their
    defaults, and the builder checks each one."""
    return {
        "power-ratio-singular": lambda *, grid_size=2048: SmoothKernel(
            _singular_ratio_kernel, grid_size, name="power-ratio-singular"),
        "power-ratio-window": lambda *, grid_size=2048, theta=0.5: SmoothKernel(
            _window_ratio_kernel(float(theta)), grid_size, name="power-ratio-window"),
        "shifted-resolvent": lambda *, grid_size=2048, a=1.0: SmoothKernel(
            _plus_resolvent_kernel(float(a)), grid_size, name="shifted-resolvent"),
        "cosine-product": lambda *, grid_size=256: SmoothKernel(
            lambda x, y: np.cos(x) * np.cos(y), grid_size, name="cosine-product"),
        "complex-mode": lambda *, grid_size=256: SmoothKernel(
            lambda x, y: np.exp(1j * (np.asarray(x) + 2.0 * np.asarray(y))),
            grid_size, name="complex-mode"),
        "von-mises": lambda *, grid_size=256: SmoothKernel(
            lambda x, y: np.exp(np.cos(np.asarray(x) - np.asarray(y))),
            grid_size, name="von-mises"),
    }


def make_kernel(name: str, **params) -> SmoothKernel:
    """The catalog kernel ``name`` built with ``params``; a parameter the
    kernel does not take is refused, not ignored."""
    catalog = kernel_catalog()
    if name not in catalog:
        raise KeyError(f"unknown kernel {name!r}; catalog: {sorted(catalog)}")
    builder = catalog[name]
    for key in params:
        if key not in builder.__kwdefaults__:
            raise ValueError(f"kernel {name!r} takes no parameter {key!r}; "
                             f"it takes {sorted(builder.__kwdefaults__)}")
    return builder(**params)


# ----------------------------------------------------------------------------
# corollary-level certified bounds
# ----------------------------------------------------------------------------

def _power_diff_derivative_sup(order: int, theta: float) -> float:
    """Sup over the window of any mixed order-``order`` derivative of the
    divided difference: 4^(order+1-theta) * theta * prod_{m<=order}(m-theta).
    Valid while every convex combination of the arguments stays >= 1/4."""
    prod = theta
    for m in range(1, order + 1):
        prod *= (m - theta)
    return 4.0 ** (order + 1 - theta) * prod


def _family_sobolev_upper(theta: float, d: int) -> float:
    """Uniform-in-shift sup-norm Leibniz bound standing in for the Sobolev
    constants of the whole translated kernel family (sup >= normalized L2)."""
    total = 0.0
    for a, b in ((1, d), (0, d), (1, 0), (0, 0)):
        term = 0.0
        for i in range(a + 1):
            for j in range(b + 1):
                term += (
                    math.comb(a, i) * math.comb(b, j)
                    * _PHI_WINDOW.derivative_sup(a - i)
                    * _PHI_WINDOW.derivative_sup(b - j)
                    * COORDINATE_STRETCH ** (i + j)
                    * _power_diff_derivative_sup(i + j, theta)
                )
        total += term
    return total


@lru_cache(maxsize=32)
def _catalog_bound(name: str, grid_size: int, d: int, p_value: float) -> float:
    """certified_pcb_bound of a catalog kernel at its default parameters.

    Only the float is memoised; the kernel is dropped when the call returns.
    ``grid_size`` reaches SmoothKernel as given, so a fractional size is
    rejected there rather than truncated."""
    return certified_pcb_bound(make_kernel(name, grid_size=grid_size), d, p_value)


def plus_kernel_bound(a: float, p, d: int | None = None, grid_size: int = 2048) -> float:
    """Certified bound for the symbol 1/(a + x + y) on [0,1]^2, a >= 1.

    Computed once at a = 1 from the bumped periodic extension; the value at
    general a is exactly bound(1)/a because the a-symbol is 1/a times a
    restriction of the a = 1 symbol.
    """
    # written so that NaN fails too; at a = inf the bound would read 0
    if not 1.0 <= a < math.inf:
        raise ValueError(f"the shifted-resolvent bound requires a >= 1 and finite, got a = {a}")
    d = sobolev_order(p, d)
    return _catalog_bound("shifted-resolvent", grid_size, d, as_index(p).value) / float(a)


def sum_quadrant_bound(a: float, b: float, theta: float, p,
                       d: int | None = None) -> float:
    """Certified bound for ((x^theta +/- y^theta)/(x + y)) on x >= a, y >= b.

    Normalizes by max(a, b), then gathers the dyadic blocks I_k x J_k,
    J_{k+1} x I_k and the unit square, each reduced to the a = 1
    shifted-resolvent certificate; the block series has the closed form
    2 B1^p [2^(theta p) + (2 + 2^-p) 2^(2 theta p) / (1 - 2^(-p(1-theta)))].
    Scales exactly as max(a, b)^(theta-1).
    """
    if not (0 <= a < math.inf and 0 <= b < math.inf and a + b > 0):
        raise ValueError(f"need a, b >= 0 with a + b > 0, both finite; got a={a}, b={b}")
    _check_theta(theta)
    pv = p_triangle_exponent(p)
    b1 = plus_kernel_bound(1.0, p, d)
    series = 2.0 ** (2.0 * theta * pv) / (1.0 - 2.0 ** (-pv * (1.0 - theta)))
    g_pow = 2.0 * b1**pv * (2.0 ** (theta * pv) + (2.0 + 2.0 ** (-pv)) * series)
    return max(a, b) ** (theta - 1.0) * g_pow ** (1.0 / pv)


def power_ratio_base_bound(theta: float, p, d: int | None = None,
                           grid_size: int = 2048) -> float:
    """Certified bound for the k = 0 dyadic block of the divided-difference
    symbol (x >= 0, y in [1/2, 1)), glued from two certificates:

    * the singular-factor kernel bound composed with the rank-one
      x^theta/y^theta split (covers x <= 1/2), and
    * the uniform family bound for the shifted windows (covers x >= 1/2),

    then rescaled from the y in [1, 2] window by exact homogeneity.
    """
    _check_theta(theta)
    d = sobolev_order(p, d)
    pv = as_index(p).value
    # the family bound first: it rejects an order beyond the ramp table
    # before the singular kernel is sampled
    piece2 = _prefactor(d, p) * UNIVERSAL_CONST * _family_sobolev_upper(theta, d)
    piece1 = (_catalog_bound("power-ratio-singular", grid_size, d, pv)
              * 2.0 ** (1.0 / pv) * 2.0**theta)
    window_bound = (piece1**pv + piece2**pv) ** (1.0 / pv)
    return 2.0 ** (1.0 - theta) * window_bound
