"""Monte Carlo risk evaluation for the model-selection estimator.

One engine run drives everything.  Each replication takes its
coefficient estimates from `replication_estimates`, which draws the
period sums of a fresh path (its n*p increments folded onto one period)
without building the path; the CLI's single-path fits use it too.  A
chunk keeps each replication's proxy variance and the coefficients the
profiles reach, then selects and scores all its replications as one
block: every distinct shrinkage profile is scored through the
coefficient-space identity for the discrete norm, and each replication's
selected estimate, the profile select_model would choose, takes that
profile's error.  The adaptive risk and the oracle benchmark thus share
replications and one scoring identity, so they are directly comparable.

A chunk derives the Philox keys of all its replications' noise
substreams in one pass (`RngStream.span`), and takes the truth
coefficients, their tail norm and the drift part of the period sums
from a per-process cache.

Determinism contract: replication r always draws from stream r of the
base seed, replications are processed in fixed chunks of 50, and chunk
results are reduced in chunk order.  Thread count changes wall-clock
time only, never a reported digit.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

import numpy as np

from .estimator import (
    CoefficientEstimates,
    build_weight_family,
    cheapest_profiles,
    coefficients_from_period_sums,
    default_delta,
    efficient_delta,
    estimate_proxy_variance,
)
from .noise import NoiseSpec, RngStream, sample_period_sums
from .renewal import InterarrivalLaw
from .signal import SignalSpec, cell_integrals, discrete_fourier_coeffs, discrete_norm_sq, grid_values

_CHUNK = 50


def _benchmark_noise() -> NoiseSpec:
    return NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.chi_squared(3.0))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one risk experiment.

    `p` fixes the sampling frequency for every n; setting it to None
    switches to the rule p = max(p_min, ceil(n^(5/6))) instead.  The
    estimator knobs left at None take `estimator.family_knobs`'s
    sample-size driven choices.
    """

    signal: SignalSpec = field(default_factory=SignalSpec.benchmark)
    noise: NoiseSpec = field(default_factory=_benchmark_noise)
    n_values: tuple = (20, 100, 200, 1000)
    p: int = 100001
    p_min: int = 101
    replications: int = 10000
    base_seed: int = 0
    threads: int = 1
    strict_h5: bool = False
    eps: float = None
    k_star: int = None
    k_star0: int = 100
    delta: float = None
    delta_variant: str = "auto"
    varsigma_star: float = 1.0

    def __post_init__(self):
        if self.replications < 2:
            raise ValueError("need at least 2 replications for a standard error")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.base_seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.base_seed}")
        if self.delta_variant not in ("auto", "efficient"):
            raise ValueError("delta_variant must be 'auto' or 'efficient'")
        if not self.n_values:
            raise ValueError("n_values is empty")
        if not 0.0 < self.varsigma_star < math.inf:
            raise ValueError(f"varsigma_star must be finite and positive, got {self.varsigma_star!r}")


@dataclass(frozen=True)
class RiskRow:
    n: int
    p: int
    replications: int
    risk: float
    risk_se: float
    relative: float
    oracle: float
    seconds: float


@dataclass(frozen=True)
class RiskReport:
    rows: tuple


def satisfies_h5(n: int, p: int) -> bool:
    """Sampling-frequency condition p >= n^(5/6)."""
    return p >= n ** (5.0 / 6.0)


def resolve_frequency(config: ExperimentConfig, n: int) -> int:
    """Sampling frequency for n >= 0 periods: config.p, or the rule
    max(p_min, ceil(n^(5/6))) when that is None.  Raises ValueError when
    it is below 3, or below n^(5/6) under the strict frequency check."""
    if n < 0:
        raise ValueError(f"need a nonnegative number of periods, got n={n}")
    if config.p is not None:
        p = config.p
    else:
        p = max(config.p_min, math.ceil(n ** (5.0 / 6.0)))
    if p < 3:
        raise ValueError(f"need p >= 3 samples per period, got p={p} for n={n}")
    if config.strict_h5 and not satisfies_h5(n, p):
        raise ValueError(f"p={p} violates the frequency condition for n={n}")
    return p


def resolve_delta(config: ExperimentConfig, n: int) -> float:
    if config.delta is not None:
        return config.delta
    if config.delta_variant == "efficient":
        return efficient_delta(n)
    return default_delta(n)


def resolve_selection(config: ExperimentConfig, n: int):
    """Sampling frequency, weight family and penalty threshold for one n."""
    p = resolve_frequency(config, n)
    family = build_weight_family(
        n,
        p,
        eps=config.eps,
        k_star=config.k_star,
        k_star0=config.k_star0,
        varsigma_star=config.varsigma_star,
    )
    return p, family, resolve_delta(config, n)


def pinsker_constant(k: int, r: float) -> float:
    """Sharp asymptotic risk constant for k-smooth signals of size r."""
    if k < 1 or int(k) != k:
        raise ValueError("smoothness order must be a positive integer")
    if r <= 0.0:
        raise ValueError("radius must be positive")
    return ((2 * k + 1) * r) ** (1.0 / (2 * k + 1)) * (k / ((k + 1) * math.pi)) ** (
        2.0 * k / (2 * k + 1)
    )


def relative_risk(risk: float, signal, p: int) -> float:
    """Risk divided by the discrete squared norm of the signal."""
    norm_sq = discrete_norm_sq(grid_values(signal, p))
    if norm_sq <= 0.0:
        raise ValueError("signal has zero discrete norm")
    return risk / norm_sq


def replication_estimates(drift_sums: np.ndarray, noise: NoiseSpec, n: int,
                          rng: RngStream) -> CoefficientEstimates:
    """Coefficient estimates of one replication: n periods of the signal
    whose drift part is `drift_sums` (n * cell_integrals(S, p)), observed
    under `noise` and drawn from `rng`."""
    return coefficients_from_period_sums(sample_period_sums(drift_sums, noise, n, rng), n)


@lru_cache(maxsize=1)
def _chunk_constants(signal: SignalSpec, n: int, p: int, width: int):
    """What every chunk of one n shares, built once per process: the first
    `width` truth coefficients, the grid norm of theta above them (the last
    coefficient weighted by 1/2 on even grids) and the drift part of the
    period sums, n * cell_integrals(signal, p) (read-only: shared)."""
    theta = discrete_fourier_coeffs(signal, p)
    sq = theta * theta
    tail = sq[width : p - 1].sum() + (sq[p - 1] if p % 2 else 0.5 * sq[p - 1])
    truth = theta[:width].copy()
    drift_sums = n * cell_integrals(signal, p)
    truth.flags.writeable = drift_sums.flags.writeable = False
    return truth, tail, drift_sums


def _run_chunk(payload):
    """Selected-estimate errors of replications start..stop-1 and each
    distinct profile's error summed over them.

    Each replication contributes its proxy variance and the first W
    coefficient estimates, W the width of the profile matrix `weights`,
    which is all that selection and scoring read; the chunk is then
    selected and scored as one block.  A replication's selected estimate
    is its cheapest profile applied to theta_hat (the earliest on ties,
    which holds the member select_model picks), so it takes that
    profile's error.  A profile row is zero-padded to W, so its error is
    the squared distance over the first W coefficients plus the squared
    norm of theta above W, whose last coefficient the grid norm weights
    by 1/2 on even grids."""
    (signal, noise, n, p, weights, delta, base_seed, start, stop) = payload
    width = weights.shape[1]
    truth, tail, drift_sums = _chunk_constants(signal, n, p, width)
    block = np.empty((stop - start, width))
    sigma = np.empty(stop - start)
    for i, rng in enumerate(RngStream.span(base_seed, start, stop)):
        est = replication_estimates(drift_sums, noise, n, rng)
        sigma[i] = estimate_proxy_variance(est)
        block[i] = est.theta[:width]
    _, chosen = cheapest_profiles(weights, block, sigma, n, delta)
    errors = ((weights * block[:, None, :] - truth) ** 2).sum(axis=-1) + tail
    # a running sum down the rows, as one replication at a time would add
    # them: errors.sum(axis=0) pairs the rows up when there is one profile
    return errors[np.arange(stop - start), chosen], errors.cumsum(axis=0)[-1]


def run_risk_experiment(config: ExperimentConfig) -> RiskReport:
    """Evaluate the selection procedure for every requested n."""
    rows = []
    with ProcessPoolExecutor(max_workers=config.threads) if config.threads > 1 else nullcontext() as pool:
        for n in config.n_values:
            t0 = perf_counter()
            p, family, delta = resolve_selection(config, n)
            total = config.replications
            payloads = [
                (
                    config.signal,
                    config.noise,
                    n,
                    p,
                    family.weights,
                    delta,
                    config.base_seed,
                    start,
                    min(start + _CHUNK, total),
                )
                for start in range(0, total, _CHUNK)
            ]
            results = list((pool.map if pool else map)(_run_chunk, payloads))
            selected = np.concatenate([sel for sel, _ in results])
            risk = float(selected.mean())
            risk_se = float(selected.std(ddof=1) / math.sqrt(total))
            profile_total = sum(profile_sum for _, profile_sum in results)
            rows.append(
                RiskRow(
                    n=n,
                    p=p,
                    replications=total,
                    risk=risk,
                    risk_se=risk_se,
                    relative=relative_risk(risk, config.signal, p),
                    oracle=float(profile_total.min() / total),
                    seconds=perf_counter() - t0,
                )
            )
    return RiskReport(rows=tuple(rows))
