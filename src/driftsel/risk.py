"""Run configuration and Monte Carlo risk evaluation for the
model-selection estimator.

`RunConfig` is the one description of a run: flat fields holding the
paper's full-scale defaults, whose signal and noise are built from those
fields.  The `resolve_*` functions turn it into each n's sampling
frequency, weight family and penalty threshold; the CLI reads and writes
it as key=value text.

One engine run drives everything.  Replications take their
coefficient estimates from `replication_estimates`, which draws the
period sums of a fresh path per stream (its n*p increments folded onto
one period) without building the path, and transforms them as one
block; the CLI's single-path fits are its one-stream case.  A chunk
walks its replications in blocks of max(1, _BLOCK_VALUES // p) rows, 8
at p = 1001 and one from p = 4097 up, which keep every bit of one
replication at a time.  It keeps each replication's proxy variance and
the coefficients the profiles reach, then selects and scores all its
replications as one block: every distinct shrinkage profile is scored
through the coefficient-space identity for the discrete norm, and each
replication's selected estimate, the profile select_model would choose,
takes that profile's error.  The adaptive risk and the oracle benchmark
thus share replications and one scoring identity, so they are directly
comparable.

A chunk derives the Philox keys of all its replications' noise
substreams in one pass (`RngStream.span`), and carries the truth
coefficients, their tail norm and the drift part of the period sums,
which the parent computes once per n: it depends on its arguments alone.

Determinism contract: replication r always draws from stream r of the
base seed, replications are processed in fixed chunks of 50, and chunk
results are reduced in chunk order.  Thread count changes wall-clock
time only, never a reported digit.
"""

import math
import re
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

import numpy as np

from .estimator import (
    CoefficientEstimates,
    build_weight_family,
    coefficients_from_period_sums,
    default_delta,
    efficient_delta,
    estimate_proxy_variance,
    selection_cost,
)
from .noise import NoiseSpec, RngStream, sample_period_sums
from .renewal import InterarrivalLaw
from .signal import SignalSpec, cell_integrals, discrete_fourier_coeffs, discrete_norm_sq, grid_values

_CHUNK = 50
# period-sum values a chunk draws and transforms at once: 8 replications
# at p = 1001, one from p = 4097 up, where a row's own cost dominates;
# 32 rows at p = 1001 added 1.1 MiB to a 50-replication run's traced peak
_BLOCK_VALUES = 1 << 13
# values in one (chunk replications x distinct profiles x profile width)
# scoring temporary, 128 MiB of float64; a chunk holds a few at once
_MAX_SCORE_VALUES = 1 << 24

_LAW_PATTERN = re.compile(r"^([a-z_]+)\(([^)]*)\)$")
_LAW_ARITY = {"exponential": 1, "gamma": 2, "chi_squared": 1}


def _setting(key: str, default):
    """A RunConfig field that the text form writes and reads as `key`."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True)
class RunConfig:
    """Everything a run can configure, as flat fields with the paper's
    full-scale defaults.

    Each keyed field declares its config key beside its default, and the
    text form lists those fields in declaration order.  `threads` has no
    key: set only by --threads, it never reaches the digest, so results
    stay byte-identical across thread counts.

    Zero sentinels mean "derive from the sample size": k_star, eps and p
    switch to their rules when left at 0 (p = max(p_min,
    ceil(n^(5/6)))); renewal_horizon at 0 takes the solver's default and
    jump_intensity at 0 means no jump part.  None of them may be
    negative.  `delta` is the text auto, efficient or a finite number.
    Construction checks every rule that reads one run, estimator or
    renewal field and raises ValueError; `signal` and `noise` are built
    from their fields on first use, and SignalSpec and NoiseSpec raise
    ValueError for those fields.
    """

    seed: int = _setting("seed", 0)
    threads: int = 1
    strict_h5: bool = _setting("strict_h5", False)
    signal_kind: str = _setting("signal.kind", "benchmark")
    signal_coefficients: tuple[float, ...] = _setting("signal.coefficients", ())
    signal_values: tuple[float, ...] = _setting("signal.values", ())
    rho1: float = _setting("noise.rho1", 0.5)
    rho2: float = _setting("noise.rho2", 0.5)
    rho_check: float = _setting("noise.rho_check", 1.0)
    interarrival: str = _setting("noise.interarrival", "chi_squared(3)")
    marks: str = _setting("noise.marks", "normal")
    jump_intensity: float = _setting("noise.jump_intensity", 0.0)
    jump_law: str = _setting("noise.jump_law", "gaussian")
    k_star0: int = _setting("estimator.k_star0", 100)
    k_star: int = _setting("estimator.k_star", 0)
    delta: str = _setting("estimator.delta", "auto")
    eps: float = _setting("estimator.eps", 0.0)
    varsigma_star: float = _setting("estimator.varsigma_star", 1.0)
    n_values: tuple[int, ...] = _setting("risk.n_values", (20, 100, 200, 1000))
    p: int = _setting("risk.p", 100001)
    p_min: int = _setting("risk.p_min", 101)
    replications: int = _setting("risk.replications", 10000)
    estimate_n: int = _setting("estimate.n", 100)
    renewal_h: float = _setting("renewal.h", 0.001)
    renewal_horizon: float = _setting("renewal.horizon", 0.0)

    def __post_init__(self):
        for name in ("k_star", "eps", "p", "renewal_horizon", "jump_intensity"):
            # a negative zero-sentinel would otherwise silently mean its default
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be positive, or 0 for its default, got {getattr(self, name)!r}")
        try:
            known = self.delta in ("auto", "efficient") or math.isfinite(float(self.delta))
        except ValueError:
            known = False
        if not known:
            raise ValueError(f"delta must be auto, efficient, or a finite number, got {self.delta!r}")
        if self.replications < 2:
            raise ValueError("need at least 2 replications for a standard error")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not self.n_values:
            raise ValueError("n_values is empty")
        if len(set(self.n_values)) < len(self.n_values):
            # one n would otherwise repeat a risk row, and overwrite one figure with another
            raise ValueError(f"n_values repeats an n: {self.n_values!r}")
        if not self.renewal_h > 0.0:
            raise ValueError(f"renewal_h must be positive, got {self.renewal_h!r}")
        if not 0.0 < self.varsigma_star < math.inf:
            raise ValueError(f"varsigma_star must be finite and positive, got {self.varsigma_star!r}")

    @cached_property
    def signal(self) -> SignalSpec:
        if self.signal_kind == "benchmark":
            return SignalSpec.benchmark()
        if self.signal_kind == "trig":
            return SignalSpec.trig_polynomial(self.signal_coefficients)
        if self.signal_kind == "tabulated":
            return SignalSpec.tabulated(self.signal_values)
        raise ValueError(f"unknown signal.kind {self.signal_kind!r}")

    @cached_property
    def noise(self) -> NoiseSpec:
        """The interarrival law is written name(args): exponential(rate),
        gamma(shape, scale) or chi_squared(df)."""
        text = self.interarrival
        match = _LAW_PATTERN.match(text.replace(" ", ""))
        if not match:
            raise ValueError(f"bad interarrival law {text!r}; expected name(args)")
        name, arg_text = match.groups()
        try:
            args = [float(a) for a in arg_text.split(",")] if arg_text else []
        except ValueError:
            raise ValueError(f"bad interarrival arguments in {text!r}") from None
        if _LAW_ARITY.get(name) != len(args):
            raise ValueError(f"unsupported interarrival law {text!r}")
        law = getattr(InterarrivalLaw, name)(*args)
        return NoiseSpec(self.rho1, self.rho2, self.rho_check, law, self.marks,
                         self.jump_intensity, self.jump_law)


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


def satisfies_h5(n: int, p: int) -> bool:
    """Sampling-frequency condition p >= n^(5/6)."""
    return p >= n ** (5.0 / 6.0)


def resolve_frequency(config: RunConfig, n: int) -> int:
    """Sampling frequency for n >= 1 periods: config.p, or the rule
    max(p_min, ceil(n^(5/6))) when that is 0.  Raises ValueError for n < 1,
    or p below 3 or, under the strict frequency check, below n^(5/6)."""
    if n < 1:
        raise ValueError(f"need n >= 1 periods, got n={n}")
    p = config.p or max(config.p_min, math.ceil(n ** (5.0 / 6.0)))
    if p < 3:
        raise ValueError(f"need p >= 3 samples per period, got p={p} for n={n}")
    if config.strict_h5 and not satisfies_h5(n, p):
        raise ValueError(f"p={p} violates the frequency condition for n={n}")
    return p


def resolve_delta(config: RunConfig, n: int) -> float:
    if config.delta == "auto":
        return default_delta(n)
    if config.delta == "efficient":
        return efficient_delta(n)
    return float(config.delta)


def resolve_selection(config: RunConfig, n: int):
    """Sampling frequency, weight family and penalty threshold for one n."""
    p = resolve_frequency(config, n)
    family = build_weight_family(
        n,
        p,
        eps=config.eps or None,
        k_star=config.k_star or None,
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


def replication_estimates(drift_sums: np.ndarray, noise: NoiseSpec, n: int, rngs) -> list:
    """Coefficient estimates of one replication per stream of `rngs`: n
    periods of the signal whose drift part is `drift_sums`
    (n * cell_integrals(S, p)), observed under `noise`.  The streams are
    drawn and transformed as one block, each estimate a row view of it."""
    return coefficients_from_period_sums(sample_period_sums(drift_sums, noise, n, rngs), n)


def _truth(signal: SignalSpec, n: int, p: int, width: int):
    """What every chunk of one n reads of the signal: the first `width`
    truth coefficients, the grid norm of theta above them (the last
    coefficient weighted by 1/2 on even grids) and the drift part of the
    period sums, n * cell_integrals(signal, p) (read-only: shared), and
    the discrete squared norm a risk is divided by, which raises
    ValueError when it is 0."""
    norm_sq = discrete_norm_sq(grid_values(signal, p))
    if norm_sq <= 0.0:
        raise ValueError("signal has zero discrete norm")
    theta = discrete_fourier_coeffs(signal, p)
    sq = theta * theta
    tail = sq[width : p - 1].sum() + (sq[p - 1] if p % 2 else 0.5 * sq[p - 1])
    truth = theta[:width].copy()
    drift_sums = n * cell_integrals(signal, p)
    truth.flags.writeable = drift_sums.flags.writeable = False
    return truth, tail, drift_sums, norm_sq


def _run_chunk(payload):
    """Selected-estimate errors of replications start..stop-1 and each
    distinct profile's error summed over them.

    Replications are drawn and transformed a block of
    max(1, _BLOCK_VALUES // p) at a time.  Each contributes its proxy
    variance and the first W coefficient estimates, W the width of the
    profile matrix `weights`, which is all that selection and scoring
    read; the chunk is then selected and scored as one block.  A replication's selected estimate
    is its cheapest profile applied to theta_hat (the earliest on ties,
    which holds the member select_model picks), so it takes that
    profile's error.  A profile row is zero-padded to W, so its error is
    the squared distance over the first W coefficients plus the squared
    norm of theta above W, whose last coefficient the grid norm weights
    by 1/2 on even grids."""
    (noise, n, weights, delta, truth, tail, drift_sums, base_seed, start, stop) = payload
    width = weights.shape[1]
    block = np.empty((stop - start, width))
    sigma = np.empty(stop - start)
    streams = RngStream.span(base_seed, start, stop)
    rows = max(1, _BLOCK_VALUES // drift_sums.size)
    for first in range(0, stop - start, rows):
        ests = replication_estimates(drift_sums, noise, n, streams[first : first + rows])
        for i, est in enumerate(ests, start=first):
            sigma[i] = estimate_proxy_variance(est)
            block[i] = est.theta[:width]
    chosen = selection_cost(weights, block, sigma, n, delta).argmin(axis=1)
    errors = ((weights * block[:, None, :] - truth) ** 2).sum(axis=-1) + tail
    # a running sum down the rows, as one replication at a time would add
    # them: errors.sum(axis=0) pairs the rows up when there is one profile
    return errors[np.arange(stop - start), chosen], errors.cumsum(axis=0)[-1]


def run_risk_experiment(config: RunConfig) -> tuple:
    """One RiskRow per requested n, in order.  Every n's weight family is
    built and checked against the scoring budget, and its `_truth`
    computed once here in the parent, before the first chunk runs: a
    family that fails a check or a zero signal stops the run before any
    work, and a row's `seconds` leaves out both."""
    total = config.replications
    chunk_rows = min(_CHUNK, total)
    plans = []
    for n in config.n_values:
        p, family, delta = resolve_selection(config, n)
        distinct, width = family.weights.shape
        if chunk_rows * distinct * width > _MAX_SCORE_VALUES:
            raise ValueError(
                f"scoring n={n} needs {chunk_rows} replications x D={distinct} profiles x W={width} "
                f"coefficients at once, above the limit of {_MAX_SCORE_VALUES} values; raise estimator.eps "
                f"(now {config.eps!r}) or lower estimator.k_star")
        plans.append((n, p, family.weights, delta, *_truth(config.signal, n, p, width)))
    rows = []
    # a fork-started pool forks every worker at the first submit, so it
    # gets no more workers than there are chunks
    workers = min(config.threads, math.ceil(total / _CHUNK))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for n, p, weights, delta, truth, tail, drift_sums, norm_sq in plans:
            t0 = perf_counter()
            payloads = [
                (config.noise, n, weights, delta, truth, tail, drift_sums, config.seed,
                 start, min(start + _CHUNK, total))
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
                    relative=risk / norm_sq,
                    oracle=float(profile_total.min() / total),
                    seconds=perf_counter() - t0,
                )
            )
    return tuple(rows)
