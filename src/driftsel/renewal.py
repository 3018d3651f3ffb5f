"""Renewal density solver and the noise-level scalars derived from it.

The renewal density rho solves the Volterra equation rho = g + g * rho where
g is the inter-arrival density. We march the recentred deviation

    Upsilon(x) = rho(x) - 1/tau_bar,
    Upsilon = f + g * Upsilon,   f(x) = g(x) - (1 - G(x)) / tau_bar,

instead of rho itself: the forcing f vanishes identically for the exponential
law (Poisson case, rho constant), and for mixing laws it decays to 0, so the
solved tail measures the real deviation instead of accumulated quadrature
drift. The convolution uses product-trapezoid weights built from exact cdf
cell masses, which keeps the scheme second order even when the density has a
square-root derivative singularity at the origin (chi-squared with odd df).
Every inter-arrival law is a gamma law, so g and G are closed forms from
scipy.special.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# largest deviation |rho - 1/tau_bar| at the horizon of a converged solve
TAIL_TOL = 1e-6
# most grid steps a solve may take: the march is O(m^2), 1.3 s at the
# default m = 120000 on a 2-vCPU VM, so about 6 s at this limit
_MAX_GRID_STEPS = 1 << 18


@dataclass(frozen=True)
class InterarrivalLaw:
    """Gamma(shape, scale) inter-arrival law of the renewal epochs.

    Every shipped law is a gamma law: exponential(rate) is gamma(1, 1/rate)
    and chi_squared(df) is gamma(df/2, 2); all have exponential moments.
    Both parameters must be finite and positive.
    """

    shape: float
    scale: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise ValueError(f"gamma shape {self.shape!r} and scale {self.scale!r} "
                             "must be finite and positive")

    @classmethod
    def exponential(cls, rate: float) -> "InterarrivalLaw":
        if rate <= 0:
            raise ValueError("rate must be positive")
        return cls(1.0, 1.0 / float(rate))

    @classmethod
    def gamma(cls, shape: float, scale: float) -> "InterarrivalLaw":
        return cls(float(shape), float(scale))

    @classmethod
    def chi_squared(cls, df: float) -> "InterarrivalLaw":
        return cls(float(df) / 2.0, 2.0)

    def mean(self) -> float:
        return self.shape * self.scale

    def pdf(self, x):
        """Density at x >= 0."""
        # deferred: scipy.special would double every command's start-up, and only the renewal solve needs it
        from scipy.special import gammaln, xlogy

        z = x / self.scale
        return np.exp(xlogy(self.shape - 1.0, z) - z - gammaln(self.shape)) / self.scale

    def cdf(self, x):
        """Distribution function at x >= 0 (the regularized incomplete gamma)."""
        from scipy.special import gammainc

        return gammainc(self.shape, x / self.scale)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size)


@dataclass(frozen=True)
class RenewalSolution:
    """Renewal density on a uniform grid plus derived summaries.

    rho[i] approximates the density at i*h; upsilon_l1 is the L1 norm of the
    deviation rho - 1/tau_bar over [0, horizon] plus a geometric tail
    estimate; l1_error is a Richardson estimate of the discretization error
    in upsilon_l1; converged reports whether the tail deviation fell below
    the tolerance at the horizon.
    """

    h: float
    horizon: float
    rho: np.ndarray
    tau_bar: float
    upsilon_l1: float
    rho_sup: float
    converged: bool
    l1_error: float

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.rho.size) * self.h

    @property
    def upsilon(self) -> np.ndarray:
        return self.rho - 1.0 / self.tau_bar


def _march_deviation(law: InterarrivalLaw, h: float, m: int) -> np.ndarray:
    """March the recentred Volterra equation on the grid 0, h, ..., m*h."""
    tau_bar = law.mean()
    x = np.arange(m + 1) * h
    g = law.pdf(x)
    G = law.cdf(x)
    forcing = g - (1.0 - G) / tau_bar

    dG = np.diff(G)                      # exact cell masses, length m
    U = 0.5 * (dG[:-1] + dG[1:])         # trapezoid weights U_r, r = 1..m-1
    U_rev = U[::-1].copy()
    pivot = 1.0 - 0.5 * dG[0]

    ups = np.empty(m + 1)
    ups[0] = forcing[0]
    for i in range(1, m + 1):
        conv = np.dot(ups[1:i], U_rev[m - i:m - 1]) if i > 1 else 0.0
        ups[i] = (forcing[i] + conv + 0.5 * dG[i - 1] * ups[0]) / pivot
    if not np.all(np.isfinite(ups)):
        raise ValueError(f"renewal march at step {h} diverged; "
                         "the inter-arrival density may be unbounded at 0")
    return ups


def _l1_with_tail(ups: np.ndarray, h: float):
    """Trapezoid L1 norm of the deviation plus a geometric tail estimate.

    The marched deviation settles onto a small discretization plateau
    instead of exactly 0, so the extrapolation works on the excess above
    the final plateau: admissible laws have exponentially decaying
    deviations, making the ratio of the last two decade integrals of the
    excess a stable contraction estimate. A ratio near or above 1 means
    the deviation has not settled and no tail mass is added.
    """
    m = ups.size - 1
    absu = np.abs(ups)
    body = float(np.trapezoid(absu, dx=h))
    excess = np.maximum(absu - absu[-1], 0.0)
    i1, i2 = int(0.8 * m), int(0.9 * m)
    a1 = float(np.trapezoid(excess[i1:i2 + 1], dx=h))
    a2 = float(np.trapezoid(excess[i2:], dx=h))
    tail_ok = True
    tail = 0.0
    if a2 > 1e-14:
        q = a2 / a1 if a1 > 0 else 1.0
        if q < 0.95:
            tail = a2 * q / (1.0 - q)
        else:
            tail_ok = False
    return body + tail, tail_ok


def grid_size(law: InterarrivalLaw, h: float, horizon: float | None = None) -> int:
    """Number of steps m of the solve's grid 0, h, ..., m*h, after its
    rules on the step and the horizon: h must be positive and resolve
    the mean spacing tau_bar (h <= tau_bar / 50), the horizon, by
    default 40 mean spacings, must cover at least 20 of them, and
    horizon / h may not exceed _MAX_GRID_STEPS (2^18).  Raises
    ValueError for a rule that fails."""
    if h <= 0:
        raise ValueError("step must be positive")
    tau_bar = law.mean()
    if h > tau_bar / 50.0:
        raise ValueError(f"step {h} too coarse for mean spacing {tau_bar}")
    if horizon is None:
        horizon = 40.0 * tau_bar
    if horizon < 20.0 * tau_bar:
        raise ValueError("horizon must cover at least 20 mean spacings")
    steps = horizon / h
    if steps > _MAX_GRID_STEPS:
        raise ValueError(f"step {h} and horizon {horizon} make {steps:.4g} grid steps, "
                         f"above the limit of {_MAX_GRID_STEPS}")
    return int(round(steps))


def solve_renewal_density(law: InterarrivalLaw, h: float, horizon: float | None = None) -> RenewalSolution:
    """Solve for the renewal density of the given inter-arrival law.

    h is the grid step and horizon the grid's end, which `grid_size`
    checks; horizon defaults to 40 mean spacings, which is far into the
    mixed regime for all shipped laws. Raises ValueError when the march
    diverges (a gamma shape below 1 makes the density unbounded at 0).
    The result is flagged non-converged when the deviation at the
    horizon still exceeds TAIL_TOL.
    """
    m = grid_size(law, h, horizon)
    tau_bar = law.mean()
    ups = _march_deviation(law, h, m)
    l1, tail_ok = _l1_with_tail(ups, h)

    # Richardson error estimate from a coarse solve at step 2h
    ups_coarse = _march_deviation(law, 2.0 * h, m // 2)
    l1_coarse, _ = _l1_with_tail(ups_coarse, 2.0 * h)
    l1_error = abs(l1 - l1_coarse) / 3.0

    rho = np.maximum(1.0 / tau_bar + ups, 0.0)
    converged = tail_ok and abs(ups[-1]) <= TAIL_TOL
    return RenewalSolution(
        h=h,
        horizon=m * h,
        rho=rho,
        tau_bar=tau_bar,
        upsilon_l1=l1,
        rho_sup=float(rho.max()),
        converged=converged,
        l1_error=l1_error,
    )


def proxy_variance(rho1: float, rho2: float, tau_bar: float) -> float:
    """Limiting per-coefficient noise variance rho1^2 + rho2^2 / tau_bar."""
    if tau_bar <= 0:
        raise ValueError("mean spacing must be positive")
    return rho1**2 + rho2**2 / tau_bar
