"""1-periodic signals, the trigonometric basis, discrete Fourier machinery.

Everything here lives on the uniform grid t_i = i/p of one period: the discrete
inner product is (x, y)_p = (1/p) sum_i x(t_i) y(t_i), the trigonometric system

    phi_1 = 1,  phi_j(x) = sqrt(2) cos(2 pi [j/2] x)  (j even),
                phi_j(x) = sqrt(2) sin(2 pi [j/2] x)  (j odd, j >= 3),

is orthonormal in (., .)_p for indices j <= p - 1.

Coefficient transforms are routed through numpy's real FFT, with the index
convention spelled out in `grid_coefficients`; a 4-point Gauss rule per cell
provides the exact-enough cell integrals of the simulated drift increments
(`cell_integrals`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import irfft, rfft

SQRT2 = math.sqrt(2.0)

# 4-point Gauss-Legendre nodes/weights on [-1, 1]; exact through degree 7,
# which is more than enough for piecewise-linear and low-frequency cells.
_GAUSS_NODES = np.array([-0.8611363115940526, -0.3399810435848563,
                         0.3399810435848563, 0.8611363115940526])
_GAUSS_WEIGHTS = np.array([0.3478548451374538, 0.6521451548625461,
                           0.6521451548625461, 0.3478548451374538])


def _fraction(t: np.ndarray) -> np.ndarray:
    """t - floor(t) of a float array, in one new array: the exact
    fractional part in [0, 1), rounded once, which is the bits of
    np.mod(t, 1.0), +0.0 at every integer."""
    u = np.floor(t, out=np.empty_like(t))
    return np.subtract(t, u, out=u)


def fold_period(t):
    """Fold real times into the half-open period (0, 1].

    The grid cells are the right-closed intervals (t_{l-1}, t_l], so the
    period is represented as (0, 1] rather than [0, 1): a time that lands
    exactly on an integer belongs to the cell ending there.
    """
    u = _fraction(np.asarray(t, dtype=float))
    np.copyto(u, 1.0, where=u == 0.0)
    return u


@dataclass(frozen=True)
class SignalSpec:
    """A 1-periodic target function.

    kind is one of:
      - "benchmark": |t - 1/2| on [1/4, 3/4] and 1/4 elsewhere on the period;
        continuous, with kinks at 1/4, 1/2, 3/4.
      - "trig_polynomial": finite combination sum_j c_j phi_j with the
        coefficients listed in basis order starting at j = 1.
      - "tabulated": periodic linear interpolation of values given on the
        uniform grid i/m, i = 0..m-1.

    Instances are immutable and evaluate vectorized via __call__.
    """

    kind: str
    coefficients: tuple = field(default=())
    values: tuple = field(default=())

    @classmethod
    def benchmark(cls) -> "SignalSpec":
        return cls(kind="benchmark")

    @classmethod
    def trig_polynomial(cls, coefficients) -> "SignalSpec":
        coefficients = tuple(float(c) for c in coefficients)
        if not coefficients:
            raise ValueError("trig_polynomial needs at least one coefficient")
        return cls(kind="trig_polynomial", coefficients=coefficients)

    @classmethod
    def tabulated(cls, values) -> "SignalSpec":
        values = tuple(float(v) for v in values)
        if len(values) < 2:
            raise ValueError("tabulated needs at least two grid values")
        return cls(kind="tabulated", values=values)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        u = fold_period(t)
        if self.kind == "benchmark":
            out = np.where((u >= 0.25) & (u <= 0.75), np.abs(u - 0.5), 0.25)
        elif self.kind == "trig_polynomial":
            out = np.zeros_like(u)
            for j, c in enumerate(self.coefficients, start=1):
                if c != 0.0:
                    out = out + c * trig_basis_eval(j, u)
        elif self.kind == "tabulated":
            m = len(self.values)
            table = np.asarray(self.values + (self.values[0],))
            out = np.interp(_fraction(u) * m, np.arange(m + 1), table)
        else:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        return out if out.shape else float(out)


def trig_basis_eval(j: int, x):
    """Evaluate the j-th trigonometric basis function at x (vectorized in x).

    j = 1 is the constant 1; even j gives sqrt(2) cos(2 pi (j/2) x); odd
    j >= 3 gives sqrt(2) sin(2 pi ((j-1)/2) x).
    """
    if j < 1:
        raise ValueError("basis index must be >= 1")
    x = np.asarray(x, dtype=float)
    if j == 1:
        out = np.ones_like(x)
    elif j % 2 == 0:
        out = SQRT2 * np.cos(2.0 * np.pi * (j // 2) * x)
    else:
        out = SQRT2 * np.sin(2.0 * np.pi * (j // 2) * x)
    return out if out.shape else float(out)


def discrete_inner(x, y) -> float:
    """Discrete inner product (x, y)_p = (1/p) sum_i x_i y_i of two grid functions."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"grid length mismatch: {x.shape} vs {y.shape}")
    return float((x * y).sum() / x.size)


def discrete_norm_sq(x) -> float:
    """Discrete squared norm ||x||_p^2 = (x, x)_p."""
    return discrete_inner(x, x)


def grid_values(S, p: int) -> np.ndarray:
    """Sample a signal (SignalSpec or plain callable) at t_i = i/p, i = 1..p."""
    t = np.arange(1, p + 1) / p
    return np.asarray(S(t), dtype=float)


def cell_integrals(S, p: int) -> np.ndarray:
    """Integrals of the signal over every grid cell ((i-1)/p, i/p], i = 1..p.

    Fixed 4-point Gauss rule per cell. The observation sampler uses these
    same values for the drift increments, so noiseless coefficient estimates
    agree with theta + h exactly, not just to independent quadrature errors.
    """
    left = np.arange(p) / p
    # nodes: shape (p, 4), cell midpoint + scaled Gauss abscissae
    nodes = left[:, None] + (_GAUSS_NODES[None, :] + 1.0) / (2.0 * p)
    vals = np.asarray(S(nodes), dtype=float)
    return vals @ _GAUSS_WEIGHTS / (2.0 * p)


def grid_coefficients(v: np.ndarray, count: int = None) -> np.ndarray:
    """The first `count` (default all p) discrete coefficients
    (v, phi_j)_p, j = 1..count, of a grid function, or of each row of a
    block of them (along the last axis).

    v holds the values at t_1..t_p. Entry k of the result holds index
    j = k + 1. Computed through one real FFT: with x = v rolled so that
    x[i] = v(t_i) for i = 0..p-1 (x[0] = v(t_p), one full period),

        (v, phi_1)_p      = Re X_0 / p,
        (v, phi_{2k})_p   = sqrt(2) Re X_k / p,
        (v, phi_{2k+1})_p = -sqrt(2) Im X_k / p,

    where X = rfft(x) (`bin_coefficients`).  A block's rows take the same
    bits as one at a time, and a shorter count the same bits as the first
    entries of a longer one.
    """
    v = np.asarray(v, dtype=float)
    p = v.shape[-1]
    count = p if count is None else count
    if not 1 <= count <= p:
        raise ValueError(f"count must lie in 1..{p}, got {count}")
    x = np.concatenate((v[..., -1:], v[..., :-1]), axis=-1)
    return bin_coefficients(rfft(x), p, count)


def bin_coefficients(X: np.ndarray, p: int, count: int) -> np.ndarray:
    """The first `count` discrete coefficients of a p-point grid function
    read off the bins X_0, X_1, ... (last axis, at least count // 2 + 1
    of them) of the real DFT of its rolled values, as `grid_coefficients`
    reads them."""
    theta = np.empty(X.shape[:-1] + (count,))
    theta[..., 0] = X[..., 0].real / p
    # even j = 2k at slots 1, 3, 5, ...; odd j = 2k+1 at slots 2, 4, 6, ...
    theta[..., 1::2] = SQRT2 * X[..., 1:1 + count // 2].real / p
    theta[..., 2::2] = -SQRT2 * X[..., 1:1 + (count - 1) // 2].imag / p
    return theta


def coefficients_to_grid(theta: np.ndarray) -> np.ndarray:
    """Grid values at t_1..t_p of sum_j theta_j phi_j, inverse of grid_coefficients.

    Exact round trip for odd p. For even p the top index j = p is the
    alternating Nyquist column whose discrete norm is 2, so its synthesis
    coefficient effectively enters halved (irfft weights the Nyquist bin
    once, not twice), which is exactly what keeps the round trip exact.
    """
    theta = np.asarray(theta, dtype=float)
    p = theta.size
    X = np.zeros(p // 2 + 1, dtype=complex)
    X[0] = p * theta[0]
    re = theta[1::2]
    im = theta[2::2]
    X[1:1 + re.size] += p * re / SQRT2
    X[1:1 + im.size] += -1j * p * im / SQRT2
    x = irfft(X, n=p)
    return np.roll(x, -1)
