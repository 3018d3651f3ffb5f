"""Run configuration and Monte Carlo risk evaluation for the
model-selection estimator.

`RunConfig` is the one description of a run: flat fields holding the
paper's full-scale defaults, whose signal and noise are built from those
fields.  The `resolve_*` functions turn it into each n's sampling
frequency, weight family and penalty threshold; the CLI reads and writes
it as key=value text.  A config that breaks a rule raises `ConfigError`
where the rule is checked, before any draw: `resolve_selection` for an
n's frequency and family, and `run_risk_experiment` for the scoring
budget of each n's chunks.

One engine run drives everything.  Replications take their
coefficient estimates from `replication_estimates`, which draws the
period sums of a fresh path per stream (its n*p increments folded onto
one period) without building the path and without its Brownian part,
and keeps the M = min(n, p - 1) coefficients the estimator reads; it
adds the Brownian part to those in coefficient space, M normals per
stream, which is exact in law.  The CLI's single-path fits are its
one-stream case.  It takes one of two routes, which make the same draws
and agree to rounding (about 1e-15): one length-p rfft of each stream's
period sums, or, for a few renewal epochs against many cells, a
projection of each stream's few noise terms (one per epoch, one per
cell holding a jump) onto the K = M // 2 + 1 bins, added to the drift
part's M coefficients.  `projects` picks the projection when the
expected terms (n / tau_bar + jump_intensity * n) times K come to less
than p * log2(p) / 8 (_PROJECTION_SHARE): it reads the plan alone,
never a timing.  The constant 8 is where the two routes' costs cross on
a 2-vCPU VM (the projection took 0.42 against 0.91 ms per 50
replications at n = 20, p = 1001, 1.20 against 1.16 ms at n = 100, 35.6
against 15.3 ms at n = 1000, p = 10001, and 40 against 851 ms at
n = 1000, p = 100001), and it keeps an n whose routes cost about the
same on the rfft route.  A chunk walks its
replications in blocks (`block_rows`): max(1, _BLOCK_VALUES // p) rows
on the rfft route, 8 at p = 1001 and one from p = 4097 up, and about
_BLOCK_TERMS (term x bin) products on the projection route, all 50 at
n = 20, p = 1001 and one at n = 1000, p = 100001; either keeps every
bit of one replication at a time.  It keeps each replication's proxy
variance and the coefficients the profiles reach, then selects and
scores all its replications as one block: every distinct shrinkage
profile is scored through the coefficient-space identity for the
discrete norm, and each replication's selected estimate, the profile
select_model would choose, takes that profile's error.  The adaptive
risk and the oracle benchmark thus share replications and one scoring
identity, so they are directly comparable.  A chunk calls no BLAS:
its sums are numpy's own fixed-order ones, so no digit follows
OpenBLAS's thread count.

A chunk derives the Philox keys of its own replications' noise
substreams in one pass (`stream_keys`; replication r of every n reads
stream r), so the run holds no key per replication.  Its payload
carries the truth coefficients, their tail norm and the drift part of
the period sums, and on the projection route the drift part's M
coefficients and the p-th roots of unity, which the parent computes
once per n: they depend on their arguments alone.

`--threads N` means N processes compute chunks, the parent one of
them: once every n is planned, `run_risk_experiment` forks the others
(os.fork, so POSIX only), which inherit the plans and send their share
of each n's chunk results back down a pipe, one pickle per n.

Determinism contract: replication r always draws from stream r of the
base seed, replications are processed in fixed chunks of 50, and chunk
results are reduced in chunk order, whichever process computed them.
Thread count changes wall-clock time only, never a reported digit.
"""

import math
import os
import pickle
import re
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from signal import SIGKILL
from time import perf_counter

import numpy as np

from .estimator import (
    CoefficientEstimates,
    build_weight_family,
    default_delta,
    efficient_delta,
    estimate_proxy_variance,
    selection_cost,
)
from .noise import (
    NoiseSpec,
    brownian_normals,
    sample_period_sums,
    sample_period_terms,
    stream_keys,
)
from .renewal import InterarrivalLaw
from .signal import (
    SignalSpec,
    bin_coefficients,
    cell_integrals,
    discrete_norm_sq,
    grid_coefficients,
    grid_values,
)

_CHUNK = 50
# period-sum values a chunk draws and transforms at once: 8 replications
# at p = 1001, one from p = 4097 up, where a row's own cost dominates;
# 32 rows at p = 1001 added 1.1 MiB to a 50-replication run's traced peak
_BLOCK_VALUES = 1 << 13
# (term x bin) products the projection route forms at once: a whole chunk
# at n = 20, p = 1001, and one row at n = 1000, p = 100001
_BLOCK_TERMS = 1 << 16
# the projection route runs while its expected (term x bin) products stay
# below p * log2(p) / _PROJECTION_SHARE, a share of one rfft's work
_PROJECTION_SHARE = 8
# the largest sampling frequency: a run holds about 164 bytes per unit
# of p whatever n (15.7 MiB at p = 100001), so 2^22 stays under 700 MiB
_MAX_P = 1 << 22
# values in one (chunk replications x distinct profiles x profile width)
# scoring temporary, 128 MiB of float64; a chunk holds a few at once
_MAX_SCORE_VALUES = 1 << 24

_LAW_PATTERN = re.compile(r"^([a-z_]+)\(([^)]*)\)$")
_LAW_ARITY = {"exponential": 1, "gamma": 2, "chi_squared": 1}


def _setting(key: str, default):
    """A RunConfig field that the text form writes and reads as `key`."""
    return field(default=default, metadata={"key": key})


class ConfigError(ValueError):
    """Raised for malformed, unknown, or inconsistent configuration."""


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
        if self.replications > 1 << 32:
            # replication r draws from stream r, and a seed's stream indices stop below 2**32
            raise ValueError(f"replications must be at most 2**32, got {self.replications}")
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
    or p below 3, above _MAX_P or, under the strict frequency check,
    below n^(5/6)."""
    if n < 1:
        raise ValueError(f"need n >= 1 periods, got n={n}")
    p = config.p or max(config.p_min, math.ceil(n ** (5.0 / 6.0)))
    if p < 3:
        raise ValueError(f"need p >= 3 samples per period, got p={p} for n={n}")
    if p > _MAX_P:
        raise ValueError(f"p={p} for n={n} exceeds the limit of {_MAX_P} samples per period")
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
    """Sampling frequency, weight family and penalty threshold for one n.
    Raises ConfigError when n breaks a frequency rule, or its family a
    knob or weight-sum rule."""
    try:
        p = resolve_frequency(config, n)
        family = build_weight_family(n, p, eps=config.eps or None, k_star=config.k_star or None,
                                     k_star0=config.k_star0, varsigma_star=config.varsigma_star)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
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


def _expected_terms(n: int, noise: NoiseSpec) -> float:
    """Expected projection terms of one replication of n periods: n /
    tau_bar renewal epochs plus jump_intensity * n jumps, which bounds
    the cells holding one; inf when the mean spacing underflows to 0."""
    mean = noise.interarrival.mean()
    return (n / mean if mean > 0.0 else math.inf) + noise.jump_intensity * n


def projects(n: int, p: int, noise: NoiseSpec) -> bool:
    """Whether replications of n periods at frequency p take the
    projection route: when their expected terms times the K = M // 2 + 1
    bins the estimator reads, M = min(n, p - 1), come to less than
    p * log2(p) / 8.  The rule reads the plan alone, never a timing."""
    bins = min(n, p - 1) // 2 + 1
    return _expected_terms(n, noise) * bins < p * math.log2(p) / _PROJECTION_SHARE


def block_rows(n: int, p: int, noise: NoiseSpec) -> int:
    """Replications a chunk draws and transforms at once: on the rfft
    route max(1, _BLOCK_VALUES // p), and on the projection route enough
    for about _BLOCK_TERMS (term x bin) products, (n / tau_bar + lambda n
    + 1) * K of them a row; at most a chunk."""
    if projects(n, p, noise):
        bins = min(n, p - 1) // 2 + 1
        return min(_CHUNK, max(1, int(_BLOCK_TERMS // ((_expected_terms(n, noise) + 1.0) * bins))))
    return min(_CHUNK, max(1, _BLOCK_VALUES // p))


@lru_cache(maxsize=1)
def _unit_roots(p: int) -> np.ndarray:
    """exp(-2 pi i j / p), j = 0..p-1, each entry above p / 2 the
    conjugate of its mirror (read-only: shared)."""
    half = np.exp(np.arange(p // 2 + 1) * (-2j * math.pi / p))
    roots = np.concatenate((half, half[(p + 1) // 2 - 1 : 0 : -1].conj()))
    roots.flags.writeable = False
    return roots


def _projection(drift_sums: np.ndarray, n: int):
    """What the projection route reads besides the draws: the drift
    part's M coefficients, grid_coefficients(drift_sums, M), and the unit
    roots of p."""
    p = drift_sums.size
    return grid_coefficients(drift_sums, min(n, p - 1)), _unit_roots(p)


def _transformed(drift_sums: np.ndarray, noise: NoiseSpec, n: int, keys) -> np.ndarray:
    """The rfft route: each stream's period sums, drift part included, as
    one block through one length-p rfft."""
    p = drift_sums.size
    sums = sample_period_sums(drift_sums, noise, n, keys)
    brownian = brownian_normals(keys, min(n, p - 1))
    brownian *= noise.rho1 * noise.rho_check / math.sqrt(n)
    thetas = grid_coefficients(sums, brownian.shape[1])
    thetas *= p / n
    thetas += brownian
    return thetas


def _projected(drift_theta: np.ndarray, roots: np.ndarray, noise: NoiseSpec, n: int, keys) -> np.ndarray:
    """The projection route: `_transformed`'s thetas up to rounding, from
    the drift part's M coefficients `drift_theta`, the unit roots of p
    and each stream's few period-sum terms (`sample_period_terms`).

    A term of value w in cell l sits at index q = (l + 1) mod p of the
    rolled grid, so it adds w * roots[(q k) mod p] to real-DFT bin k, an
    exact integer index.  With k = a B + b, B = isqrt(K), the term is the
    product of a giant step roots[(q a B) mod p] * w and a baby step
    roots[(q b) mod p]; every row sums its terms with one reduceat, and a
    row with none keeps 0.  Elementwise products, gathers and reduceat
    only: no BLAS, and a block's rows have the bits of one at a time."""
    p, m = roots.size, drift_theta.size
    bins = m // 2 + 1
    cells, values, counts = sample_period_terms(noise, n, p, keys)
    brownian = brownian_normals(keys, m)
    brownian *= noise.rho1 * noise.rho_check / math.sqrt(n)
    q = (cells + 1) % p
    step = math.isqrt(bins)
    baby = roots[np.multiply.outer(q, np.arange(step)) % p]
    giant = roots[np.multiply.outer(q, np.arange(0, bins, step)) % p]
    giant *= values[:, None]
    terms = (giant[:, :, None] * baby[:, None, :]).reshape(q.size, giant.shape[1] * step)
    X = np.zeros((len(keys), bins), dtype=complex)
    rows = np.flatnonzero(counts)
    if rows.size:
        X[rows] = np.add.reduceat(terms, (np.cumsum(counts) - counts)[rows], axis=0)[:, :bins]
    thetas = bin_coefficients(X, p, m)
    thetas += drift_theta
    thetas *= p / n
    thetas += brownian
    return thetas


def replication_estimates(drift_sums: np.ndarray, noise: NoiseSpec, n: int, keys, projection=None) -> list:
    """Coefficient estimates of one replication per stream of `keys`
    (rows of `stream_keys`): n periods of the signal whose drift part is
    `drift_sums` (n * cell_integrals(S, p)), observed under `noise`.

    Each theta holds the M = min(n, p - 1) coefficients the estimator
    reads: p / n times the discrete coefficients of the stream's period
    sums without their Brownian part, plus rho1 * rho_check / sqrt(n)
    times M standard normals of its Brownian substream, that part's
    exact law.  The streams are drawn as one block, on the route
    `projects` picks: one rfft of the period sums, or a projection of
    their few noise terms onto the bins the estimator reads, with
    `projection`, `_projection(drift_sums, n)`, made here when the caller
    has not.  Each estimate is a row view of the block."""
    p = drift_sums.size
    if projects(n, p, noise):
        thetas = _projected(*(projection or _projection(drift_sums, n)), noise, n, keys)
    else:
        thetas = _transformed(drift_sums, noise, n, keys)
    return [CoefficientEstimates(n=n, p=p, theta=theta) for theta in thetas]


def _truth(signal: SignalSpec, n: int, p: int, width: int):
    """What every chunk of one n reads of the signal: the first `width`
    truth coefficients, the grid norm of theta above them (the last
    coefficient weighted by 1/2 on even grids) and the drift part of the
    period sums, n * cell_integrals(signal, p) (read-only: shared), and
    the discrete squared norm a risk is divided by, which raises
    ValueError when it is 0."""
    values = grid_values(signal, p)
    norm_sq = discrete_norm_sq(values)
    if norm_sq <= 0.0:
        raise ValueError("signal has zero discrete norm")
    theta = grid_coefficients(values)
    sq = theta * theta
    tail = sq[width : p - 1].sum() + (sq[p - 1] if p % 2 else 0.5 * sq[p - 1])
    truth = theta[:width].copy()
    drift_sums = n * cell_integrals(signal, p)
    truth.flags.writeable = drift_sums.flags.writeable = False
    return truth, tail, drift_sums, norm_sq


def _run_chunk(payload):
    """Selected-estimate errors of replications start..stop-1 and each
    distinct profile's error summed over them.

    The chunk derives its streams' keys itself, and passes `projection`
    (made once per n by the plan, None off the projection route) on to
    `replication_estimates`.  Replications are drawn and transformed a
    block of block_rows(n, p, noise) at a time.  Each contributes its
    proxy variance and the first W coefficient estimates, W the width of
    the profile matrix `weights`, which is all that selection and
    scoring read; the chunk is then selected and scored as one block.  A
    replication's selected estimate is its cheapest profile applied to
    theta_hat (the earliest on ties, which holds the member select_model
    picks), so it takes that profile's error.  A profile row is
    zero-padded to W, so its error is the squared distance over the first
    W coefficients plus the squared norm of theta above W, whose last
    coefficient the grid norm weights by 1/2 on even grids."""
    (noise, n, weights, delta, truth, tail, drift_sums, base_seed, start, stop, projection) = payload
    keys = stream_keys(base_seed, start, stop)
    width = weights.shape[1]
    block = np.empty((stop - start, width))
    sigma = np.empty(stop - start)
    rows = block_rows(n, drift_sums.size, noise)
    for first in range(0, stop - start, rows):
        ests = replication_estimates(drift_sums, noise, n, keys[first : first + rows], projection)
        for i, est in enumerate(ests, start=first):
            sigma[i] = estimate_proxy_variance(est)
            block[i] = est.theta[:width]
    chosen = selection_cost(weights, block, sigma, n, delta).argmin(axis=1)
    errors = ((weights * block[:, None, :] - truth) ** 2).sum(axis=-1) + tail
    # a running sum down the rows, as one replication at a time would add
    # them: errors.sum(axis=0) pairs the rows up when there is one profile
    return errors[np.arange(stop - start), chosen], errors.cumsum(axis=0)[-1]


def _share(plans, w: int, workers: int):
    """Process w's share of the run: for each n in order, the results of
    its chunks w, w + workers, w + 2 * workers, ..."""
    for *_, payloads in plans:
        yield [_run_chunk(payload) for payload in payloads[w::workers]]


def _worker(plans, w: int, workers: int, sink) -> None:
    """The forked side of process w.  It sends each n's share down the
    pipe `sink` as one pickle, or the exception that stopped it, and then
    leaves through os._exit, so it never returns into the caller's code,
    its exit hooks or its stdio buffers."""
    try:
        for results in _share(plans, w, workers):
            sink.write(pickle.dumps(results))
            sink.flush()
    except Exception as exc:
        sink.write(pickle.dumps(exc))
        sink.flush()
    finally:
        os._exit(0)


def _received(pid: int, pipe) -> list:
    """One n's share from the worker process `pid`, whose exception, if
    one stopped it, is raised here."""
    try:
        results = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):
        raise ChildProcessError(f"risk worker process {pid} stopped without sending its results") from None
    if isinstance(results, Exception):
        raise results
    return results


def _reap(pid: int) -> None:
    os.kill(pid, SIGKILL)
    os.waitpid(pid, 0)


def run_risk_experiment(config: RunConfig) -> tuple:
    """One RiskRow per requested n, in order.  Every n's weight family is
    built, and its `_truth` and chunk payloads made, here before the
    first chunk runs, so a config error or a zero signal stops the run
    before any draw.  A family that fails a check is a ConfigError, and
    so is one too wide to score: a chunk scores min(50, replications)
    replications x D distinct profiles x W coefficients at once, (D x W)
    the shape of its profile matrix, and that may not exceed
    _MAX_SCORE_VALUES.

    P = min(threads, chunks) processes then compute, the parent and P - 1
    forked workers, process w taking chunks w, w + P, ... of every n in
    n order.  A worker's exception is raised here, a worker that dies
    without a result raises ChildProcessError, and every worker is
    reaped before this returns or raises.  A row's `seconds` runs from
    the end of the previous row, or from the fork, until all its n's
    results are in."""
    total = config.replications
    starts = range(0, total, _CHUNK)
    scored = min(_CHUNK, total)  # replications a chunk scores at once
    plans = []
    for n in config.n_values:
        p, family, delta = resolve_selection(config, n)
        distinct, width = family.weights.shape
        if scored * distinct * width > _MAX_SCORE_VALUES:
            raise ConfigError(
                f"scoring n={n} needs {scored} replications x D={distinct} profiles x W={width} "
                f"coefficients at once, above the limit of {_MAX_SCORE_VALUES} values; raise estimator.eps "
                f"(now {config.eps!r}) or lower estimator.k_star")
        truth, tail, drift_sums, norm_sq = _truth(config.signal, n, p, width)
        projection = _projection(drift_sums, n) if projects(n, p, config.noise) else None
        payloads = [
            (config.noise, n, family.weights, delta, truth, tail, drift_sums, config.seed,
             start, min(start + _CHUNK, total), projection)
            for start in starts
        ]
        plans.append((n, p, norm_sq, payloads))
    workers = min(config.threads, len(starts))
    rows = []
    t0 = perf_counter()
    with ExitStack() as cleanup:
        pipes = []
        for w in range(1, workers):
            read, write = os.pipe()
            pipe = cleanup.enter_context(os.fdopen(read, "rb"))
            with os.fdopen(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _worker(plans, w, workers, sink)
            cleanup.callback(_reap, pid)
            pipes.append((pid, pipe))
        for (n, p, norm_sq, payloads), own in zip(plans, _share(plans, 0, workers)):
            results = [None] * len(payloads)
            results[::workers] = own
            for w, (pid, pipe) in enumerate(pipes, start=1):
                results[w::workers] = _received(pid, pipe)
            selected = np.concatenate([sel for sel, _ in results])
            risk = float(selected.mean())
            risk_se = float(selected.std(ddof=1) / math.sqrt(total))
            profile_total = sum(profile_sum for _, profile_sum in results)
            t1 = perf_counter()
            rows.append(
                RiskRow(
                    n=n,
                    p=p,
                    replications=total,
                    risk=risk,
                    risk_se=risk_se,
                    relative=risk / norm_sq,
                    oracle=float(profile_total.min() / total),
                    seconds=t1 - t0,
                )
            )
            t0 = t1
    return tuple(rows)
