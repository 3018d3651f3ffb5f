"""Penalized model selection over a Pinsker-type shrinkage family.

The pipeline turns one observation path into a curve estimate in three
steps.  First the raw trigonometric coefficients are read off the
increments: averaging phi_j against dy over the whole path reduces,
after folding onto one period, to a single length-p transform
(`estimate_coefficients`).  The later steps read only the min(n, p - 1)
first coefficients (`CoefficientEstimates` holds at least those), which
is all the risk engine computes (`risk.replication_estimates`).  Second
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

# most members k_star * m a weight family may have: the default knobs stay
# at 80115 or fewer up to n = 10^12.  Traced peaks at the limit: 4.9 MiB to
# build 99900 members (983 profiles) at n = 1000, p = 10001 and 22 MiB for a
# 50-replication risk run with them; 71 MiB to build the 100000 members of
# n = 20, p = 101, k_star = 1, of which 99299 are distinct profiles
_MAX_MEMBERS = 100_000


@dataclass(frozen=True)
class CoefficientEstimates:
    """Raw coefficient estimates for one observation path: theta_j at
    entry j - 1, at least for every j <= min(n, p - 1), the frequencies
    the profiles and the proxy-variance window read; a shorter theta is
    a ValueError."""

    n: int
    p: int
    theta: np.ndarray

    def __post_init__(self):
        if len(self.theta) < min(self.n, self.p - 1):
            raise ValueError(f"theta holds {len(self.theta)} coefficients, fewer than "
                             f"min(n, p - 1) = {min(self.n, self.p - 1)}")


@dataclass(frozen=True)
class WeightFamily:
    """Candidate grid of shrinkage profiles.

    Member k is taper order `beta[k]` at bandwidth scale `scale[k]`, in
    grid order.  Many members share one weight vector, so `weights`
    stores each distinct profile once, as one row of a zero-padded
    (D x W) matrix in order of first appearance, and `profile_of[k]` is
    the row of member k's profile.  The knobs the grid was built from
    are `family_knobs`'s.
    """

    beta: np.ndarray
    scale: np.ndarray
    weights: np.ndarray
    profile_of: np.ndarray


@dataclass(frozen=True)
class SelectionResult:
    index: int
    costs: np.ndarray
    coefficients: np.ndarray
    p: int

    def grid_values(self) -> np.ndarray:
        """Estimate at the p in-period grid points (1/p, 2/p, ..., 1)."""
        padded = np.zeros(self.p)
        padded[: self.p - 1] = self.coefficients
        return coefficients_to_grid(padded)


def estimate_coefficients(obs: ObservationPath) -> CoefficientEstimates:
    """Coefficient estimates of one path: all p - 1 estimable
    coefficients, each the average of its basis function against the
    n*p increments.  Periodicity reduces that to the increments' per-cell
    sums over the periods, one length-p transform whatever n."""
    if obs.p < 3:
        raise ValueError("need at least 3 observations per period")
    theta = grid_coefficients(obs.increments.reshape(obs.n, obs.p).sum(axis=0), obs.p - 1)
    theta *= obs.p / obs.n
    return CoefficientEstimates(n=obs.n, p=obs.p, theta=theta)


def estimate_proxy_variance(est: CoefficientEstimates) -> float:
    """Noise-level estimate from the high-frequency coefficients.

    Frequencies j from floor(sqrt(n)) up to min(n, p - 1) carry
    essentially no signal, so n times each squared coefficient is an
    almost unbiased read of the proxy variance.  Returned is (n / d) times
    the sum of theta_j^2 over that window, d = min(p, n), so the sum is
    divided by d rather than by the window's length; 0.0 when the window
    is empty.  The sum of squares is numpy's own fixed-order sum, not a
    BLAS dot product, whose rounding would follow OpenBLAS's thread count.
    """
    p_check = min(est.p, est.n)
    window = est.theta[math.isqrt(est.n) - 1 : min(p_check, est.p - 1)]
    return float(est.n / p_check * np.square(window).sum())


def _bandwidth_law(beta):
    """Constant d_beta and exponent 1/(2 beta + 1) of the bandwidth
    omega = (d_beta * scale * upsilon) ** exponent of taper order beta,
    as Python floats for an int beta or arrays for an array of them."""
    return (beta + 1) * (2 * beta + 1) / (math.pi ** (2 * beta) * beta), 1.0 / (2 * beta + 1)


def pinsker_weights(beta: int, scales, upsilon: float, cap: int) -> np.ndarray:
    """Shrinkage profiles of taper order beta, one row per bandwidth
    scale in `scales`: flat at 1 below the cutoff 1 + floor(ln upsilon),
    polynomial taper 1 - (j/omega)^beta out to the bandwidth omega, zero
    beyond.  A scale multiplies the bandwidth; `cap` truncates the
    support so no profile reaches past the estimable frequencies.  Rows
    are zero-padded to the widest support, min(cap, max(cutoff - 1,
    floor(omega))).  Each omega is a Python float power, as in the flat
    test of `build_weight_family`.
    """
    if beta < 1:
        raise ValueError("taper order must be a positive integer")
    scales = np.asarray(scales, dtype=float)
    if not (scales > 0.0).all() or upsilon <= 1.0:
        raise ValueError("bandwidth scale must be positive and upsilon > 1")
    j_star = 1 + math.floor(math.log(upsilon))
    d_beta, power = _bandwidth_law(beta)
    omegas = [(d_beta * scale * upsilon) ** power for scale in scales.tolist()]
    support = min(cap, max(j_star - 1, math.floor(max(omegas, default=0.0))))
    j = np.arange(1, support + 1, dtype=float)
    omega = np.array(omegas)[:, None]
    return np.where(j < j_star, 1.0, np.where(j <= omega, 1.0 - (j / omega) ** beta, 0.0))


def family_knobs(n: int, eps, k_star, k_star0: int, varsigma_star: float):
    """Grid step eps, taper count k_star, scale count m and normalizer
    upsilon = n / varsigma_star of the weight family for n periods, eps
    and k_star left at None taking their sample-size driven choices
    eps = 1/ln n and k_star = floor(k_star0 + sqrt(ln n)).  Raises
    ValueError when n < 2, a knob leaves its range, the widest bandwidth's
    argument d_1 * (m * eps) * upsilon overflows, or the family would
    have more than _MAX_MEMBERS members."""
    if n < 2:
        raise ValueError(f"need n >= 2 periods for a weight family, got n={n}")
    if eps is None:
        eps = 1.0 / math.log(n)
    if k_star is None:
        k_star = int(k_star0 + math.sqrt(math.log(n)))
    upsilon = n / varsigma_star
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps!r} for n={n}; increase n or set eps explicitly")
    if k_star < 1:
        raise ValueError(f"k_star must be at least 1, got {k_star} for n={n}")
    if not 1.0 < upsilon < math.inf:
        raise ValueError(f"upsilon must exceed 1 and be finite, got {upsilon!r} for n={n}")
    try:
        m = int(1.0 / eps**2)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"eps={eps!r} leaves no finite scale count 1/eps^2 for n={n}") from None
    # taper order 1 has the largest constant d_beta, so the widest bandwidth
    if not math.isfinite(_bandwidth_law(1)[0] * (m * eps) * upsilon):
        raise ValueError(f"the widest bandwidth overflows at upsilon={upsilon!r} for n={n}; "
                         "raise varsigma_star")
    if k_star * m > _MAX_MEMBERS:
        raise ValueError(f"weight family for n={n} has {k_star * m} members ({k_star} tapers x {m} scales), "
                         f"above the limit {_MAX_MEMBERS}; raise eps or lower k_star")
    return eps, k_star, m, upsilon


def build_weight_family(
    n: int,
    p: int,
    eps: float = None,
    k_star: int = None,
    k_star0: int = 100,
    varsigma_star: float = 1.0,
) -> WeightFamily:
    """Construct the full candidate grid: taper orders 1..k_star crossed
    with bandwidth scales eps, 2*eps, ..., floor(1/eps^2)*eps, the knobs
    resolved by `family_knobs`.

    Most members' bandwidth stops below the cutoff, which leaves only
    the flat all-ones prefix: they share one row, and only the others
    get a profile built, one `pinsker_weights` block per taper order.
    Whether a member is flat is decided for all of them at once; numpy's
    power may differ from the scalar one in the last bits, so a member
    whose bandwidth lies within 1e-9 of the cutoff is decided again with
    the scalar rule floor(omega) < cutoff."""
    eps, k_star, m, upsilon = family_knobs(n, eps, k_star, k_star0, varsigma_star)
    cap = min(n, p - 1)
    j_star = 1 + math.floor(math.log(upsilon))
    scales = np.arange(1, m + 1) * eps  # the bits of i * eps
    with np.errstate(over="ignore"):
        d_beta, power = _bandwidth_law(np.arange(1, k_star + 1)[:, None])
        omega = (d_beta * scales * upsilon) ** power
    flat = omega < j_star
    for b, i in zip(*np.nonzero(abs(omega - j_star) <= 1e-9 * j_star)):
        d_beta, power = _bandwidth_law(int(b) + 1)
        flat[b, i] = math.floor((d_beta * scales.item(i) * upsilon) ** power) < j_star
    tapered = np.flatnonzero(~flat.all(axis=1)).tolist()
    blocks = [pinsker_weights(b + 1, scales[~flat[b]], upsilon, cap) for b in tapered]
    # every candidate row, zero-padded to one width: the flat row, which
    # a taper capped below the cutoff (all ones too) joins, then each
    # non-flat member's profile in grid order
    flat_width = min(cap, j_star - 1)
    rows = np.zeros((1 + sum(len(block) for block in blocks), max([flat_width] + [b.shape[1] for b in blocks])))
    rows[0, :flat_width] = 1.0
    start = 1
    for block in blocks:
        rows[start : start + len(block), : block.shape[1]] = block
        start += len(block)
    flat = flat.ravel()
    row_of = np.zeros(flat.size, dtype=np.intp)
    row_of[~flat] = np.arange(1, len(rows))
    # rows in order of their first member; the flat row's is the first
    # flat member, and every other row has one member
    order = list(range(1, len(rows)))
    if flat.any():
        order.insert(np.count_nonzero(~flat[: flat.argmax()]), 0)
    first = {}
    profile = np.empty(len(rows), dtype=np.intp)  # each row's profile, for the rows in `order`
    profile[order] = [first.setdefault(rows[r].tobytes(), (len(first), r))[0] for r in order]
    profile_of = profile[row_of]
    weights = rows[[r for _, r in first.values()]]
    used = np.flatnonzero(weights.any(axis=0))
    weights = np.ascontiguousarray(weights[:, : used[-1] + 1 if used.size else 0])
    # the residual term of the oracle inequality scales with the largest weight sum
    total = float(weights.sum(axis=1).max())
    if total < 1.0:
        raise ValueError("all candidates shrink below total weight 1; grid too small")
    if total > 1.0 + (upsilon / eps) ** (1.0 / 3.0):
        raise ValueError("a candidate's total weight exceeds 1 + (upsilon/eps)^(1/3)")
    return WeightFamily(np.repeat(np.arange(1, k_star + 1), m), np.tile(scales, k_star), weights, profile_of)


def selection_cost(weights: np.ndarray, block: np.ndarray, sigma: np.ndarray, n: int, delta: float):
    """Penalized empirical squared error of every profile (row of the
    zero-padded D x W profile matrix `weights`) for every estimate from n
    periods (row of the R x >=W `block`, with its proxy variance in the
    R-vector `sigma`), as an R x D array.  The penalty prices the unknown
    cross term as the noise level times the profile's squared norm per
    unit time.  Only the first W coefficients are read, and row-wise sums
    give a cost the same bits whatever R and D.  A row's argmin takes the
    lowest index on ties: profiles are numbered in order of first
    appearance, so that profile holds the earliest cheapest member."""
    if not 0.0 < delta <= 1.0 / 6.0:
        warnings.warn(
            "threshold delta outside (0, 1/6]: the oracle inequality is not guaranteed",
            stacklevel=2,
        )
    width = weights.shape[1]
    if width > block.shape[1]:
        raise ValueError("weight support exceeds the estimable frequencies")
    # estimates down the first axis, profiles down the second
    sq = block[:, None, :width] ** 2
    squares = weights * weights
    quad = (squares * sq).sum(axis=-1)
    linear = (weights * (sq - sigma[:, None, None] / n)).sum(axis=-1)
    return quad - 2.0 * linear + delta * (sigma[:, None] * squares.sum(axis=-1) / n)


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

    This is the one-row case of `selection_cost`, the risk engine's
    block scorer: every distinct profile is scored in one pass and its
    cost copied to every member that shares it, so the result records
    every member's cost for auditing.  The selected member is the first
    that holds the cheapest profile, so ties are deterministic.
    """
    if not family.profile_of.size:
        raise ValueError("weight family is empty")
    if delta is None:
        delta = default_delta(est.n)
    sigma = estimate_proxy_variance(est)
    costs = selection_cost(family.weights, est.theta[None], np.array([sigma]), est.n, delta)[0]
    chosen = costs.argmin()
    index = int(np.argmax(family.profile_of == chosen))
    width = family.weights.shape[1]
    shrunk = np.zeros(est.p - 1)
    shrunk[:width] = family.weights[chosen] * est.theta[:width]
    return SelectionResult(index=index, costs=costs[family.profile_of], coefficients=shrunk, p=est.p)
