"""Monte Carlo risk evaluation for the model-selection estimator.

One engine run drives everything.  Each replication takes its
coefficient estimates from `replication_estimates`, which draws the
period sums of a fresh path (its n*p increments folded onto one period)
without building the path; the CLI's single-path fits use it too.  The
replication then scores every distinct shrinkage profile through the
coefficient-space identity for the discrete norm, and runs the full
selection pipeline, whose chosen estimate is one of those profiles and
takes its error.  The adaptive risk and the oracle benchmark thus share
replications and one scoring identity, so they are directly comparable.

Determinism contract: replication r always draws from stream r of the
base seed, replications are processed in fixed chunks of 50, and chunk
results are reduced in chunk order.  Thread count changes wall-clock
time only, never a reported digit.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .estimator import (
    CoefficientEstimates,
    build_weight_family,
    coefficients_from_period_sums,
    default_delta,
    efficient_delta,
    select_model,
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
    estimator knobs default to the sample-size driven choices when left
    at None.
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
    if config.p is not None:
        p = config.p
    else:
        p = max(config.p_min, math.ceil(n ** (5.0 / 6.0)))
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


def _run_chunk(payload):
    """Selected-estimate errors of replications start..stop-1 and each
    distinct profile's error summed over them; the selected estimate is
    its member's profile applied to theta_hat, so it takes that error.

    A profile row is zero-padded to the family width W, so its error is
    the squared distance over the first W coefficients plus the squared
    norm of theta above W, whose last coefficient the grid norm weights
    by 1/2 on even grids."""
    (signal, noise, n, p, family, delta, base_seed, start, stop) = payload
    theta = discrete_fourier_coeffs(signal, p)
    width = family.weights.shape[1]
    sq = theta * theta
    tail = sq[width : p - 1].sum() + (sq[p - 1] if p % 2 else 0.5 * sq[p - 1])
    drift_sums = n * cell_integrals(signal, p)
    selected = np.empty(stop - start)
    profile_sum = np.zeros(family.weights.shape[0])
    for r in range(start, stop):
        est = replication_estimates(drift_sums, noise, n, RngStream(base_seed, r))
        errors = ((family.weights * est.theta[:width] - theta[:width]) ** 2).sum(axis=1) + tail
        selected[r - start] = errors[family.profile_of[select_model(est, family, delta).index]]
        profile_sum += errors
    return selected, profile_sum


def run_risk_experiment(config: ExperimentConfig) -> RiskReport:
    """Evaluate the selection procedure for every requested n."""
    rows = []
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
                family,
                delta,
                config.base_seed,
                start,
                min(start + _CHUNK, total),
            )
            for start in range(0, total, _CHUNK)
        ]
        if config.threads > 1:
            with ProcessPoolExecutor(max_workers=config.threads) as pool:
                results = list(pool.map(_run_chunk, payloads))
        else:
            results = [_run_chunk(pay) for pay in payloads]
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
