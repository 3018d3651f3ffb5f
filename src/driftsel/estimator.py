"""Penalized model selection over a Pinsker-type shrinkage family.

The pipeline turns one observation path into a curve estimate in three
steps.  First the raw trigonometric coefficients are read off the
increments: averaging phi_j against dy over the whole path reduces,
after folding onto one period, to a single length-p transform.  Second
a high-frequency slice of those coefficients estimates the proxy
variance, the noise level entering the penalty.  Third a finite family
of shrinkage profiles is scanned with the penalized empirical cost and
the minimizer is kept, ties going to the earliest candidate.

Coefficient arrays are indexed like everywhere else in this package:
entry j-1 holds the coefficient of basis function j, and a p-point grid
carries the p-1 estimable frequencies.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .noise import ObservationPath
from .signal import coefficients_to_grid, grid_coefficients


@dataclass(frozen=True)
class CoefficientEstimates:
    """Raw coefficient estimates for one observation path."""

    n: int
    p: int
    theta: np.ndarray


@dataclass(frozen=True)
class WeightFamily:
    """Candidate grid of shrinkage profiles.

    `members` holds the (beta, scale) label of every candidate in grid
    order; many labels share one weight vector, so `weights` stores each
    distinct profile once, as one row of a zero-padded (D x W) matrix in
    order of first appearance, and `profile_of[k]` is the row of member
    k's profile.
    """

    k_star: int
    eps: float
    m: int
    upsilon: float
    members: tuple
    weights: np.ndarray
    profile_of: np.ndarray

    @classmethod
    def from_members(cls, k_star, eps, m, upsilon, members, weights) -> "WeightFamily":
        """Family whose member k has label members[k] and profile weights[k];
        equal profiles are stored once."""
        if len(members) != len(weights):
            raise ValueError("need one weight vector per member")
        first = {}
        profile_of = np.empty(len(weights), dtype=np.intp)
        for k, lam in enumerate(weights):
            lam = np.asarray(lam, dtype=float)
            profile_of[k] = first.setdefault(lam.tobytes(), (len(first), lam))[0]
        rows = [lam for _, lam in first.values()]
        matrix = np.zeros((len(rows), max((lam.size for lam in rows), default=0)))
        for i, lam in enumerate(rows):
            matrix[i, : lam.size] = lam
        return cls(k_star, eps, m, upsilon, tuple(members), matrix, profile_of)

    @property
    def max_total(self) -> float:
        """Largest weight sum over the family, the quantity the residual
        term of the oracle inequality scales with."""
        return float(self.weights.sum(axis=1).max())


@dataclass(frozen=True)
class SelectionResult:
    index: int
    sigma: float
    delta: float
    costs: np.ndarray
    coefficients: np.ndarray
    n: int
    p: int

    def grid_values(self) -> np.ndarray:
        """Estimate at the p in-period grid points (1/p, 2/p, ..., 1)."""
        padded = np.zeros(self.p)
        padded[: self.p - 1] = self.coefficients
        return coefficients_to_grid(padded)


def coefficients_from_period_sums(sums: np.ndarray, n: int) -> CoefficientEstimates:
    """Average each basis function against the increments of n periods,
    given their per-cell sums over the periods (`sums`, length p).

    Periodicity makes these sums all the estimates read of a path, so
    the cost is one length-p FFT regardless of n.
    """
    p = sums.size
    if p < 3:
        raise ValueError("need at least 3 observations per period")
    theta = grid_coefficients(sums)[: p - 1] * (p / n)
    return CoefficientEstimates(n=n, p=p, theta=theta)


def estimate_coefficients(obs: ObservationPath) -> CoefficientEstimates:
    """Coefficient estimates of one path: its n*p increments folded onto
    one period, then `coefficients_from_period_sums`."""
    return coefficients_from_period_sums(obs.increments.reshape(obs.n, obs.p).sum(axis=0), obs.n)


def estimate_proxy_variance(est: CoefficientEstimates) -> float:
    """Noise-level estimate from the high-frequency coefficients.

    Frequencies from floor(sqrt(n)) up to min(p, n) carry essentially no
    signal, so n times each squared coefficient is an almost unbiased
    read of the proxy variance; the window average is returned, or 0.0
    when the window is empty.
    """
    low = math.isqrt(est.n)
    p_check = min(est.p, est.n)
    high = min(p_check, est.p - 1)
    if low > high:
        return 0.0
    block = est.theta[low - 1 : high]
    return float(est.n / p_check * np.dot(block, block))


def pinsker_weights(beta: int, scale: float, upsilon: float, cap: int) -> np.ndarray:
    """Shrinkage profile: flat at 1 below the cutoff 1 + floor(ln upsilon),
    polynomial taper 1 - (j/omega)^beta out to the bandwidth omega, zero
    beyond.  `scale` multiplies the bandwidth; `cap` truncates the support
    so no profile reaches past the estimable frequencies.  Returns the
    nonzero prefix of the profile.
    """
    if beta < 1:
        raise ValueError("taper order must be a positive integer")
    if scale <= 0.0 or upsilon <= 1.0:
        raise ValueError("bandwidth scale must be positive and upsilon > 1")
    j_star = 1 + math.floor(math.log(upsilon))
    d_beta = (beta + 1) * (2 * beta + 1) / (math.pi ** (2 * beta) * beta)
    omega = (d_beta * scale * upsilon) ** (1.0 / (2 * beta + 1))
    if math.floor(omega) < j_star:
        # the bandwidth stops below the cutoff: the flat all-ones prefix
        return np.ones(min(cap, j_star - 1))
    support = min(cap, max(j_star - 1, math.floor(omega)))
    j = np.arange(1, support + 1, dtype=float)
    lam = np.where(j < j_star, 1.0, np.where(j <= omega, 1.0 - (j / omega) ** beta, 0.0))
    return np.trim_zeros(lam, "b")


def build_weight_family(
    n: int,
    p: int,
    eps: float = None,
    k_star: int = None,
    k_star0: int = 100,
    upsilon: float = None,
    varsigma_star: float = 1.0,
) -> WeightFamily:
    """Construct the full candidate grid: taper orders 1..k_star crossed
    with bandwidth scales eps, 2*eps, ..., floor(1/eps^2)*eps.

    Defaults follow the sample-size driven choices eps = 1/ln n and
    k_star = floor(k_star0 + sqrt(ln n)); upsilon defaults to n divided
    by the variance threshold.
    """
    if n < 2:
        raise ValueError(f"need n >= 2 periods for a weight family, got n={n}")
    if eps is None:
        eps = 1.0 / math.log(n)
    if k_star is None:
        k_star = int(k_star0 + math.sqrt(math.log(n)))
    if upsilon is None:
        upsilon = n / varsigma_star
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1); increase n or set eps explicitly")
    if k_star < 1:
        raise ValueError("k_star must be at least 1")
    m = int(1.0 / eps**2)
    cap = min(n, p - 1)
    members = [(beta, i * eps) for beta in range(1, k_star + 1) for i in range(1, m + 1)]
    weights = [pinsker_weights(beta, scale, upsilon, cap) for beta, scale in members]
    family = WeightFamily.from_members(k_star, eps, m, upsilon, members, weights)
    total = family.max_total
    if total < 1.0:
        raise ValueError("all candidates shrink below total weight 1; grid too small")
    if total > 1.0 + (upsilon / eps) ** (1.0 / 3.0):
        raise ValueError("a candidate's total weight exceeds 1 + (upsilon/eps)^(1/3)")
    return family


def penalty(lam: np.ndarray, sigma: float, n: int):
    """Price of replacing the unknown cross term in the empirical error:
    the noise level times the squared norm of each profile (row of `lam`),
    per unit time."""
    return sigma * (lam * lam).sum(axis=-1) / n


def selection_cost(lam: np.ndarray, est: CoefficientEstimates, sigma: float, delta: float):
    """Penalized empirical squared error of each profile, one value per
    row of the zero-padded profile matrix `lam` (or one value for a single
    profile).  Row-wise sums give a row the same bits whatever the row
    count."""
    if not 0.0 < delta <= 1.0 / 6.0:
        warnings.warn(
            "threshold delta outside (0, 1/6]: the oracle inequality is not guaranteed",
            stacklevel=2,
        )
    if lam.shape[-1] > est.theta.size:
        raise ValueError("weight support exceeds the estimable frequencies")
    sq = est.theta[: lam.shape[-1]] ** 2
    quad = (lam * lam * sq).sum(axis=-1)
    linear = (lam * (sq - sigma / est.n)).sum(axis=-1)
    return quad - 2.0 * linear + delta * penalty(lam, sigma, est.n)


def default_delta(n: int) -> float:
    """Penalty threshold used throughout the numerical experiments."""
    return (3.0 + math.log(n)) ** -2.0


def efficient_delta(n: int) -> float:
    """Slower-decaying threshold variant for the efficiency regime."""
    return 1.0 / (6.0 + math.log(n))


def select_model(
    est: CoefficientEstimates, family: WeightFamily, delta: float = None
) -> SelectionResult:
    """Scan the candidate grid and keep the cost minimizer.

    Every distinct profile is scored in one pass and its cost copied to
    every member that shares it, so the result records every member's
    cost for auditing; argmin takes the first occurrence, which makes ties
    deterministic.
    """
    if not family.members:
        raise ValueError("weight family is empty")
    if delta is None:
        delta = default_delta(est.n)
    sigma = estimate_proxy_variance(est)
    costs = selection_cost(family.weights, est, sigma, delta)[family.profile_of]
    index = int(np.argmin(costs))
    width = family.weights.shape[1]
    shrunk = np.zeros(est.p - 1)
    shrunk[:width] = family.weights[family.profile_of[index]] * est.theta[:width]
    return SelectionResult(
        index=index,
        sigma=sigma,
        delta=delta,
        costs=costs,
        coefficients=shrunk,
        n=est.n,
        p=est.p,
    )
