"""Path samplers for the observation model: dy = S dt + rho1 dL + rho2 dz.

The noise has two independent parts. L is a Levy component: standard
Brownian motion mixed with a compensated compound Poisson jump part whose
jump measure is normalized so that the second-moment charge intensity *
E[J^2] equals 1. z is a semi-Markov component: a renewal process with a
general inter-arrival law, carrying i.i.d. standardized marks at its epochs.

Randomness is fully deterministic given (base_seed, stream_index): each
component draws from its own counter-based substream (Philox keyed through
SeedSequence spawn keys), so the z-path and the L-path of one replication
never share random state, and any component can be re-generated bitwise in
isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .renewal import InterarrivalLaw
from .signal import cell_integrals

# substream tags: one per independent noise ingredient
TAG_RENEWAL = 0
TAG_MARKS = 1
TAG_BROWNIAN = 2
TAG_JUMPS = 3

MARK_LAWS = ("normal", "rademacher", "uniform")
JUMP_LAWS = ("gaussian", "two_point")


@dataclass(frozen=True)
class RngStream:
    """Replication-addressed randomness: (base_seed, stream_index) -> substreams."""

    base_seed: int
    stream_index: int = 0

    def generator(self, tag: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.base_seed, spawn_key=(self.stream_index, tag))
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class LevyJumpSpec:
    """Compound Poisson jump part, normalized to unit second-moment charge.

    Jumps are drawn from `law` ("gaussian" or symmetric "two_point") and
    scaled by 1/sqrt(intensity) so that intensity * E[J^2] = 1 regardless
    of the intensity chosen. Both shipped laws are symmetric, so the
    compensator term intensity * E[J] * dt vanishes.
    """

    intensity: float
    law: str = "gaussian"

    def __post_init__(self):
        if not 0.0 < self.intensity < math.inf:
            raise ValueError("jump intensity must be finite and positive")
        if self.law not in JUMP_LAWS:
            raise ValueError(f"jump law must be one of {JUMP_LAWS}")

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.intensity)


@dataclass(frozen=True)
class NoiseSpec:
    """Amplitudes and laws of the two noise components.

    rho1 scales the Levy part, rho2 the semi-Markov part; rho_check in
    [0, 1] is the Brownian weight inside the Levy part, and rho_check < 1
    requires a jump specification.
    """

    rho1: float
    rho2: float
    rho_check: float = 1.0
    interarrival: InterarrivalLaw = InterarrivalLaw.chi_squared(3.0)
    marks: str = "normal"
    jumps: LevyJumpSpec | None = None

    def __post_init__(self):
        if not (0.0 <= self.rho1 < math.inf and 0.0 <= self.rho2 < math.inf):
            raise ValueError("noise amplitudes must be finite and nonnegative")
        if not 0.0 <= self.rho_check <= 1.0:
            raise ValueError("the Brownian weight must lie in [0, 1]")
        if self.rho_check < 1.0 and self.jumps is None:
            raise ValueError("a jump specification is required when the Brownian weight is below 1")
        if self.marks not in MARK_LAWS:
            raise ValueError(f"mark law must be one of {MARK_LAWS}")


@dataclass(frozen=True)
class ObservationPath:
    """Sampled observations y at t_j = j/p for j = 0..n*p."""

    n: int
    p: int
    y: np.ndarray

    def __post_init__(self):
        if self.y.size != self.n * self.p + 1:
            raise ValueError(f"path length {self.y.size} != n*p+1 = {self.n * self.p + 1}")
        if self.y[0] != 0.0:
            raise ValueError("paths start at 0")

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.y)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.y.size) / self.p


def _sample_marks(law: str, gen: np.random.Generator, size: int) -> np.ndarray:
    # standardized: mean 0, variance 1, finite fourth moment
    if law == "normal":
        return gen.standard_normal(size)
    if law == "rademacher":
        return gen.integers(0, 2, size) * 2.0 - 1.0
    if law == "uniform":
        return gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    raise ValueError(f"unknown mark law {law!r}")


def sample_renewal_times(law: InterarrivalLaw, horizon: float, rng: RngStream) -> np.ndarray:
    """Renewal epochs T_1 < T_2 < ... <= horizon (possibly empty)."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon == 0:
        return np.empty(0)
    gen = rng.generator(TAG_RENEWAL)
    expected = horizon / law.mean()
    chunk = max(16, int(expected + 6.0 * math.sqrt(expected + 1.0) + 16.0))
    gaps = law.sample(gen, chunk)
    total = float(gaps.sum())
    parts = [gaps]
    while total <= horizon:
        more = law.sample(gen, chunk)
        parts.append(more)
        total += float(more.sum())
    times = np.cumsum(np.concatenate(parts))
    return times[times <= horizon]


def _renewal_marks(spec: NoiseSpec, horizon: float, rng: RngStream):
    """Renewal epochs over [0, horizon] and the mark carried by each."""
    epochs = sample_renewal_times(spec.interarrival, horizon, rng)
    return epochs, _sample_marks(spec.marks, rng.generator(TAG_MARKS), epochs.size)


def sample_semimarkov_increments(grid: np.ndarray, spec: NoiseSpec, rng: RngStream) -> np.ndarray:
    """Increments of z over the grid cells (s_{m-1}, s_m], m = 1..M.

    z jumps by an i.i.d. standardized mark at every renewal epoch; a cell's
    increment is the sum of the marks of the epochs it contains.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    m_cells = grid.size - 1
    epochs, marks = _renewal_marks(spec, float(grid[-1]), rng)
    if epochs.size == 0:
        return np.zeros(m_cells)
    slots = np.searchsorted(grid, epochs, side="left") - 1
    return np.bincount(slots, weights=marks, minlength=m_cells)


def sample_levy_increments(grid: np.ndarray, spec: NoiseSpec, rng: RngStream) -> np.ndarray:
    """Increments of L = rho_check * W + sqrt(1 - rho_check^2) * (symmetric, uncompensated jumps)."""
    grid = np.asarray(grid, dtype=float)
    widths = np.diff(grid)
    if grid.size < 2 or np.any(widths < 0):
        raise ValueError("grid must be nondecreasing with at least two points")
    m_cells = widths.size
    dW = rng.generator(TAG_BROWNIAN).standard_normal(m_cells) * np.sqrt(widths)
    if spec.rho_check == 1.0:
        return dW
    if spec.jumps is None:
        raise ValueError("a jump specification is required when the Brownian weight is below 1")
    jump_spec = spec.jumps
    gen = rng.generator(TAG_JUMPS)
    counts = gen.poisson(jump_spec.intensity * widths)
    total = int(counts.sum())
    if jump_spec.law == "gaussian":
        jumps = gen.standard_normal(total) * jump_spec.scale
    else:
        jumps = (gen.integers(0, 2, total) * 2.0 - 1.0) * jump_spec.scale
    dJ = np.bincount(np.repeat(np.arange(m_cells), counts), weights=jumps, minlength=m_cells)
    return spec.rho_check * dW + math.sqrt(1.0 - spec.rho_check**2) * dJ


def sample_observations(S, spec: NoiseSpec, n: int, p: int, rng: RngStream) -> ObservationPath:
    """One observation path over n periods at p samples per period.

    Each increment is the exact-quadrature drift integral over its cell
    plus rho1 dL + rho2 dz.
    """
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 periods and p >= 3 samples per period")
    grid = np.arange(n * p + 1) / p
    dz = sample_semimarkov_increments(grid, spec, rng)
    dL = sample_levy_increments(grid, spec, rng)
    dy = np.tile(cell_integrals(S, p), n) + spec.rho1 * dL + spec.rho2 * dz
    y = np.concatenate(([0.0], np.cumsum(dy)))
    return ObservationPath(n=n, p=p, y=y)


def sample_period_sums(drift_sums: np.ndarray, spec: NoiseSpec, n: int,
                       rng: RngStream) -> np.ndarray:
    """The n*p increments of one observation path folded onto one period.

    Entry l is the sum over the n periods of the increment over the l-th
    in-period cell, which is all the coefficient estimates read of a path.
    drift_sums is the drift part, n * cell_integrals(S, p), which a caller
    sampling many replications of one signal computes once; its length
    is p. The result has the law of
    sample_observations(S, spec, n, p, rng).increments.reshape(n, p).sum(0),
    in O(p) memory instead of O(n p):

    - the semi-Markov part uses the same epochs and marks as the full path
      (same substreams), each epoch t folded into its cell (s_{m-1}, s_m]
      modulo p, so this part matches the full path draw for draw;
    - the Levy part is drawn directly on p cells of width n/p: Brownian
      sums N(0, n/p), jump counts Poisson(intensity * n/p).
    """
    p = drift_sums.size
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 periods and p >= 3 samples per period")
    epochs, marks = _renewal_marks(spec, float(n), rng)
    # cell m holds the epochs t with m/p < t <= (m+1)/p, the grid values
    # compared exactly as sample_semimarkov_increments compares them
    # (ceil(t * p) alone misplaces epochs within an ulp of a cell edge)
    right = np.ceil(epochs * p).astype(np.intp)
    right += right / p < epochs
    right -= (right - 1) / p >= epochs
    dz = np.bincount((right - 1) % p, weights=marks, minlength=p)
    dL = sample_levy_increments(np.arange(p + 1) * (n / p), spec, rng)
    return drift_sums + spec.rho1 * dL + spec.rho2 * dz
