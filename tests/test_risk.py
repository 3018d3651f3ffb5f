"""Tests for the Monte Carlo risk engine and benchmark constants."""

import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from driftsel.estimator import (
    CoefficientEstimates,
    build_weight_family,
    default_delta,
    efficient_delta,
    estimate_coefficients,
    estimate_proxy_variance,
    select_model,
    selection_cost,
)
from numpy.random import SeedSequence

import driftsel.risk
from driftsel import noise
from driftsel.cli import emit_config, main
from driftsel.noise import NoiseSpec, RngStream, sample_observations
from driftsel.renewal import InterarrivalLaw
from driftsel.risk import (
    ConfigError,
    RunConfig,
    _run_chunk,
    _truth,
    pinsker_constant,
    replication_estimates,
    resolve_delta,
    resolve_frequency,
    resolve_selection,
    run_risk_experiment,
    satisfies_h5,
)
from driftsel.signal import (
    SignalSpec,
    cell_integrals,
    discrete_norm_sq,
    grid_coefficients,
    grid_values,
)
from folded import folded_path_sums
from reference_coeffs import discrete_fourier_coeffs
from reference_family import member_profile, members

QUIET = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
ZERO = SignalSpec.trig_polynomial([0.0])


@pytest.fixture(scope="module")
def desk_report():
    cfg = RunConfig(n_values=(20, 100), p=1001, replications=200, seed=42, k_star=5)
    return run_risk_experiment(cfg)


def test_pinsker_constant_frozen_values():
    # frozen against a 40-digit evaluation of the closed form
    assert pinsker_constant(1, 1.0) == pytest.approx(0.42356542881870967, abs=1e-12)
    assert pinsker_constant(2, 1.0) == pytest.approx(0.39920970940682112, abs=1e-12)
    assert pinsker_constant(1, 0.5) == pytest.approx(0.33618410364209062, abs=1e-12)
    assert pinsker_constant(3, 2.0) == pytest.approx(0.42708445919682284, abs=1e-12)


def test_pinsker_constant_limits_and_validation():
    assert pinsker_constant(1, 1e-12) < 1e-3
    assert pinsker_constant(1, 0.5) < pinsker_constant(1, 1.0)
    with pytest.raises(ValueError):
        pinsker_constant(0, 1.0)
    with pytest.raises(ValueError):
        pinsker_constant(1, 0.0)


def test_relative_risk_division():
    def norm_sq(signal, p):
        return _truth(signal, 1, p, 1)[3]

    assert norm_sq(SignalSpec.trig_polynomial([1.0]), 101) == pytest.approx(1.0)
    # published risk over published norm reproduces the published ratio
    flat = SignalSpec.trig_polynomial([math.sqrt(0.1883601)])
    assert 0.0398 / norm_sq(flat, 101) == pytest.approx(0.211, abs=5e-4)
    # same risk over the analytic benchmark norm 1/24
    bench = 0.0398 / norm_sq(SignalSpec.benchmark(), 10001)
    assert bench == pytest.approx(0.0398 * 24.0, rel=1e-2)
    with pytest.raises(ValueError, match="zero discrete norm"):
        norm_sq(SignalSpec.trig_polynomial([0.0]), 101)


def test_config_validation():
    # every rule that reads one field is checked on construction
    for name, value in [
        ("replications", 1), ("delta", "fast"), ("delta", "nan"), ("delta", "inf"), ("n_values", ()),
        ("threads", 0), ("threads", -3), ("seed", -1),
        ("varsigma_star", 0.0), ("varsigma_star", -1.0), ("varsigma_star", math.inf), ("varsigma_star", math.nan),
        ("k_star", -1), ("eps", -0.5), ("p", -5), ("renewal_horizon", -1.0), ("jump_intensity", -1.0),
        ("renewal_h", 0.0), ("renewal_h", -1.0), ("n_values", (100, 20, 100)),
        ("replications", 2**32 + 1),
    ]:
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: value})


def test_frequency_resolution():
    fixed = RunConfig(p=301)
    assert resolve_frequency(fixed, 100) == 301
    ruled = RunConfig(p=0, p_min=101)
    assert resolve_frequency(ruled, 100) == 101          # rule floor
    assert resolve_frequency(ruled, 4000) == 1004        # ceil(4000^(5/6))
    assert satisfies_h5(100, 47)
    assert not satisfies_h5(100, 10)
    strict = RunConfig(p=10, strict_h5=True)
    with pytest.raises(ValueError):
        resolve_frequency(strict, 100)


def test_delta_resolution():
    assert resolve_delta(RunConfig(), 100) == default_delta(100)
    assert resolve_delta(RunConfig(delta="efficient"), 100) == efficient_delta(100)
    assert resolve_delta(RunConfig(delta="0.05"), 100) == 0.05


def test_grid_and_coefficient_routes_agree():
    # the engine scores the selected estimate in coefficient space; replay
    # its streams and score the same selections on the grid instead, on
    # both grid parities, with a family whose selections vary; the oracle
    # is replayed one unpadded profile prefix at a time with the suffix
    # identity (the last coefficient weighs 1/2 on even grids)
    n, reps, seed = 20, 40, 11
    for p in (501, 500):
        cfg = RunConfig(n_values=(n,), p=p, replications=reps, seed=seed, k_star=3, eps=0.3)
        row = run_risk_experiment(cfg)[0]
        _, family, delta = resolve_selection(cfg, n)
        drift = n * cell_integrals(cfg.signal, p)
        truth = grid_values(cfg.signal, p)
        theta = discrete_fourier_coeffs(cfg.signal, p)
        sq = theta**2
        last = sq[p - 1] if p % 2 else 0.5 * sq[p - 1]
        upsilon = n / cfg.varsigma_star
        prefixes = [member_profile(beta, scale, upsilon, min(n, p - 1)) for beta, scale in members(family)]
        errors, chosen, profile_errors = [], set(), np.zeros(len(prefixes))
        for r in range(reps):
            [est] = replication_estimates(drift, cfg.noise, n, [RngStream(seed, r)])
            result = select_model(est, family, delta)
            diff = result.grid_values() - truth
            errors.append(np.dot(diff, diff) / p)
            chosen.add(int(family.profile_of[result.index]))
            for k, lam in enumerate(prefixes):
                m = lam.size
                d = lam * est.theta[:m] - theta[:m]
                profile_errors[k] += np.dot(d, d) + sq[m : p - 1].sum() + last
        assert len(chosen) > 1
        assert row.risk == pytest.approx(np.mean(errors), rel=1e-12)
        assert row.oracle == pytest.approx(profile_errors.min() / reps, rel=1e-12)


@pytest.mark.parametrize("n, p, k_star, reps", [(100, 1001, None, 300), (1000, 10001, 5, 100)])
def test_selection_matches_a_per_profile_loop(n, p, k_star, reps):
    # the one-pass matrix scoring picks the member a loop scoring one
    # unpadded prefix at a time picks, on the engine's own replications
    cfg = RunConfig(n_values=(n,), p=p, replications=reps, seed=12, k_star=k_star or 0)  # None: the rule
    _, family, delta = resolve_selection(cfg, n)
    first, upsilon = {}, n / cfg.varsigma_star
    for k, (beta, scale) in enumerate(members(family)):
        first.setdefault(family.profile_of[k], member_profile(beta, scale, upsilon, min(n, p - 1)))
    prefixes = [first[i] for i in range(len(first))]
    drift = n * cell_integrals(cfg.signal, p)
    rows, sigmas, picks = [], [], []
    for r in range(reps):
        [est] = replication_estimates(drift, cfg.noise, n, [RngStream(12, r)])
        sigma = estimate_proxy_variance(est)
        costs = []
        for lam in prefixes:
            th = est.theta[: lam.size]
            quad = np.dot(lam * lam, th * th)
            linear = np.dot(lam, th * th - sigma / n)
            costs.append(quad - 2.0 * linear + delta * sigma * np.dot(lam, lam) / n)
        expected = int(np.argmin(np.array(costs)[family.profile_of]))
        assert select_model(est, family, delta).index == expected
        rows.append(est.theta)
        sigmas.append(sigma)
        picks.append(family.profile_of[expected])
    # the engine's block chooser: every replication's costs in one call
    chosen = selection_cost(family.weights, np.array(rows), np.array(sigmas), n, delta).argmin(axis=1)
    assert np.array_equal(chosen, picks)


@pytest.mark.parametrize("p", [501, 500])
@pytest.mark.parametrize(
    "n, knobs",
    [(20, {}), (20, {"k_star": 3, "eps": 0.3}), (9, {"k_star": 2, "eps": 0.5})],
    ids=["default", "k3_eps03", "one_profile"],
)
def test_chunk_block_matches_a_replication_loop(n, knobs, p):
    # the chunk selects and scores its replications as one block; one
    # replication at a time through select_model must give the same bits
    # (at n = 9 with k_star = 2 every member is flat: one profile)
    cfg = RunConfig(n_values=(n,), p=p, replications=100, seed=5, **knobs)
    _, family, delta = resolve_selection(cfg, n)
    start, stop = 50, 100
    width = family.weights.shape[1]
    theta = discrete_fourier_coeffs(cfg.signal, p)
    sq = theta * theta
    tail = sq[width : p - 1].sum() + (sq[p - 1] if p % 2 else 0.5 * sq[p - 1])
    drift = n * cell_integrals(cfg.signal, p)
    # the parent's truth of this n is the one written out here
    carried = _truth(cfg.signal, n, p, width)
    assert np.array_equal(carried[0], theta[:width]) and carried[1] == tail and np.array_equal(carried[2], drift)
    selected, profile_sum = _run_chunk(
        (cfg.noise, n, family.weights, delta, *carried[:3], cfg.seed, start, stop))
    expected, total = [], np.zeros(family.weights.shape[0])
    for r in range(start, stop):
        [est] = replication_estimates(drift, cfg.noise, n, [RngStream(cfg.seed, r)])
        errors = ((family.weights * est.theta[:width] - theta[:width]) ** 2).sum(axis=1) + tail
        expected.append(errors[family.profile_of[select_model(est, family, delta).index]])
        total += errors
    assert np.array_equal(selected, expected)
    assert np.array_equal(profile_sum, total)


@pytest.mark.parametrize(
    "knobs",
    [{}, {"marks": "rademacher", "rho_check": 0.6, "jump_intensity": 3.0, "jump_law": "two_point"}],
    ids=["default", "rademacher_jumps"],
)
def test_chunk_keeps_its_bits_whatever_the_block_size(monkeypatch, knobs):
    # a chunk draws and transforms max(1, _BLOCK_VALUES // p) replications
    # at a time, 8 at p = 1001; any other block size gives the same bits
    n, p = 20, 1001
    cfg = RunConfig(n_values=(n,), p=p, replications=100, seed=7, k_star=3, **knobs)
    _, family, delta = resolve_selection(cfg, n)
    truth = _truth(cfg.signal, n, p, family.weights.shape[1])[:3]
    payload = (cfg.noise, n, family.weights, delta, *truth, cfg.seed, 50, 100)
    sizes = []

    def estimates(drift_sums, noise, n, rngs):
        sizes.append(len(rngs))
        return replication_estimates(drift_sums, noise, n, rngs)

    monkeypatch.setattr(driftsel.risk, "replication_estimates", estimates)
    default = _run_chunk(payload)
    assert sizes == [8] * 6 + [2]
    for rows in (1, 3, 50):
        sizes.clear()
        monkeypatch.setattr(driftsel.risk, "_BLOCK_VALUES", rows * p)
        selected, profile_sum = _run_chunk(payload)
        assert sizes == [rows] * (50 // rows) + [50 % rows] * (50 % rows > 0)
        assert np.array_equal(selected, default[0]) and np.array_equal(profile_sum, default[1])


def test_chunk_builds_no_seed_sequence(monkeypatch):
    # a SeedSequence per substream was the largest fixed cost of a
    # replication, and a Philox per substream the next: a chunk derives
    # every key in one pass, and a process builds one generator per noise
    # component, which it re-keys for every stream
    built, seeds = [], []
    real_sequence, real_philox = np.random.SeedSequence, noise.Philox

    def sequence(*args, **kwargs):
        built.append(args)
        return real_sequence(*args, **kwargs)

    def philox(*args, **kwargs):
        seeds.append((args, kwargs))
        return real_philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", sequence)
    monkeypatch.setattr(np.random.bit_generator, "SeedSequence", sequence)
    monkeypatch.setattr(noise, "Philox", philox)
    noise._component.cache_clear()  # as in a fresh worker process
    cfg = RunConfig(n_values=(20,), p=101, replications=100, seed=3, k_star=3,
                    rho_check=0.5, jump_intensity=2.0)
    _, family, delta = resolve_selection(cfg, 20)
    truth, tail, drift, _ = _truth(cfg.signal, 20, 101, family.weights.shape[1])
    for start in (0, 50):
        _run_chunk((cfg.noise, 20, family.weights, delta, truth, tail, drift, cfg.seed, start, start + 50))
    assert built == []
    # renewal epochs, marks, Brownian sums and jumps: one Philox each
    assert len(seeds) == 4
    assert all(len(args) == 1 and not kwargs and not isinstance(args[0], SeedSequence) for args, kwargs in seeds)


def test_truth_is_built_once_per_n_in_the_parent(monkeypatch):
    # every chunk of one n carries the truth the parent built for that n,
    # so a chunk computes nothing per n and the engine keeps no cache
    calls, payloads = [], []
    real_integrals, real_chunk = driftsel.risk.cell_integrals, driftsel.risk._run_chunk

    def counted(*args):
        calls.append(args)
        return real_integrals(*args)

    def chunk(payload):
        payloads.append(payload)
        return real_chunk(payload)

    monkeypatch.setattr(driftsel.risk, "cell_integrals", counted)
    monkeypatch.setattr(driftsel.risk, "_run_chunk", chunk)
    cfg = RunConfig(n_values=(20, 30), p=101, replications=120, seed=3, k_star=3)
    run_risk_experiment(cfg)
    assert [n for _, n, *_ in payloads] == [20] * 3 + [30] * 3
    assert [p for _, p in calls] == [101, 101]
    for n in (20, 30):
        (_, _, weights, _, truth, tail, drift, *_), *rest = [pl for pl in payloads if pl[1] == n]
        assert all(pl[4] is truth and pl[6] is drift for pl in rest)
        assert not truth.flags.writeable and not drift.flags.writeable
        assert np.array_equal(drift, n * real_integrals(cfg.signal, 101))
        assert np.array_equal(truth, discrete_fourier_coeffs(cfg.signal, 101)[: weights.shape[1]])


def test_report_is_deterministic():
    cfg = RunConfig(n_values=(20,), p=501, replications=60, seed=7, k_star=3)
    a = run_risk_experiment(cfg)[0]
    b = run_risk_experiment(cfg)[0]
    c = run_risk_experiment(RunConfig(n_values=(20,), p=501, replications=60, seed=7, k_star=3, threads=3))[0]
    assert (a.risk, a.risk_se, a.relative, a.oracle) == (b.risk, b.risk_se, b.relative, b.oracle)
    assert (a.risk, a.risk_se, a.relative, a.oracle) == (c.risk, c.risk_se, c.relative, c.oracle)
    other = run_risk_experiment(RunConfig(n_values=(20,), p=501, replications=60, seed=8, k_star=3))[0]
    assert other.risk != a.risk


def _counted_forks(monkeypatch):
    """The parent's os.fork calls, recorded as they pass through."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_one_fork_per_worker_per_run(monkeypatch):
    # the workers inherit every n's plan, so they are forked once per run;
    # each process computes three of the six chunks, the last one short
    forks = _counted_forks(monkeypatch)
    cfg = RunConfig(n_values=(10, 20, 30), p=101, replications=260, k_star=2)
    serial = run_risk_experiment(cfg)
    assert forks == []
    forked = run_risk_experiment(replace(cfg, threads=2))
    assert forks == [os.getpid()]
    assert [replace(row, seconds=0.0) for row in serial] == [replace(row, seconds=0.0) for row in forked]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "threads, replications, workers",
    [(1000, 60, 2), (4, 60, 2), (3, 500, 3), (2, 1000, 2), (8, 50, None), (8, 2, None)],
)
def test_pool_has_no_more_workers_than_chunks(monkeypatch, threads, replications, workers):
    # min(threads, chunks) processes compute, the parent among them, so a
    # run forks one fewer and none for a single chunk
    forks = _counted_forks(monkeypatch)
    run_risk_experiment(RunConfig(n_values=(10,), p=101, replications=replications, k_star=2, threads=threads))
    assert len(forks) == (0 if workers is None else workers - 1)


def test_desk_scale_monotone_in_n(desk_report):
    lo, hi = (next(row for row in desk_report if row.n == n) for n in (20, 100))
    assert hi.risk < lo.risk - 3.0 * math.hypot(lo.risk_se, hi.risk_se)


def test_desk_scale_oracle_inequality(desk_report):
    for row in desk_report:
        assert row.oracle <= row.risk + 1e-12
        assert row.risk <= 1.5 * row.oracle + 10.0 / row.n


def test_desk_scale_relative_column(desk_report):
    bench = SignalSpec.benchmark()
    for row in desk_report:
        norm = discrete_norm_sq(grid_values(bench, row.p))
        assert row.relative == pytest.approx(row.risk / norm, rel=1e-14)


def test_noiseless_oracle_is_the_truncation_error():
    S = SignalSpec.benchmark()
    n, p = 5, 101
    cfg = RunConfig(rho1=0.0, rho2=0.0, n_values=(n,), p=p, replications=2, seed=3, k_star=2, eps=0.5)
    assert (cfg.signal, cfg.noise) == (S, QUIET)
    row = run_risk_experiment(cfg)[0]
    est = estimate_coefficients(sample_observations(S, QUIET, n=n, p=p, rng=RngStream(3, 0)))
    theta_grid = grid_coefficients(grid_values(S, p))
    sq = theta_grid**2
    family = build_weight_family(n, p, eps=0.5, k_star=2)
    errors = []
    for beta, scale in members(family):
        w = member_profile(beta, scale, float(n), min(n, p - 1))
        m = w.size
        d = w * est.theta[:m] - theta_grid[:m]
        errors.append(np.dot(d, d) + sq[m : p - 1].sum() + sq[p - 1])
    assert row.oracle == pytest.approx(min(errors), rel=1e-12)


def test_efficiency_trend_on_smooth_signals():
    # scaling the risk by n^(2/3) should not grow along the geometric
    # sample sweep; this is the efficiency direction at desk scale
    cfg = RunConfig(
        signal_kind="trig", signal_coefficients=(0.2, 0.7, -0.3), interarrival=f"exponential({1.0 / 3.0!r})",
        n_values=(100, 400, 1600), p=601, replications=120, seed=601, k_star=5,
    )
    assert cfg.signal == SignalSpec.trig_polynomial([0.2, 0.7, -0.3])
    assert cfg.noise == NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.exponential(1.0 / 3.0))
    rows = run_risk_experiment(cfg)
    scaled = [(r.n ** (2.0 / 3.0) * r.risk, r.n ** (2.0 / 3.0) * r.risk_se) for r in rows]
    for (s1, e1), (s2, e2) in zip(scaled, scaled[1:]):
        assert s2 - s1 <= 3.0 * math.hypot(e1, e2)


def _within(a, b, k=5.0):
    """Two samples whose means differ by at most k combined standard errors."""
    se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
    return abs(a.mean() - b.mean()) <= k * se


def _estimates(sums, n):
    """All p - 1 coefficient estimates of each row of a block of period
    sums over n periods, as `estimate_coefficients` makes them of a path."""
    p = sums.shape[-1]
    return [CoefficientEstimates(n, p, theta * (p / n)) for theta in grid_coefficients(sums, p - 1)]


def _folded_and_path_sums(S, spec, n, p, reps):
    """Period sums from the folded sampler, with the Brownian part it
    leaves out added back (`folded_path_sums`), and from full paths
    (other seeds)."""
    drift = n * cell_integrals(S, p)
    folded = folded_path_sums(drift, spec, n, [RngStream(81, r) for r in range(reps)])
    full = np.array([
        sample_observations(S, spec, n=n, p=p, rng=RngStream(82, r)).increments.reshape(n, p).sum(0)
        for r in range(reps)
    ])
    return folded, full


@pytest.mark.parametrize(
    "levy",
    [
        NoiseSpec(rho1=1.0, rho2=0.0),
        NoiseSpec(rho1=1.0, rho2=0.0, rho_check=0.6, jump_intensity=2.0),
        NoiseSpec(rho1=1.0, rho2=0.0, rho_check=0.0, jump_intensity=3.0, jump_law="two_point"),
    ],
    ids=["brownian", "gaussian_jumps", "two_point_jumps"],
)
def test_period_sums_levy_part_matches_full_paths_in_law(levy):
    n, p, reps = 20, 101, 400
    folded, full = _folded_and_path_sums(ZERO, levy, n, p, reps)
    # each folded cell sums n cells of width 1/p: variance n/p
    cell_var = {k: (v * v).ravel() / (n / p) for k, v in (("folded", folded), ("full", full))}
    for sq in cell_var.values():
        assert abs(sq.mean() - 1.0) <= 5.0 * sq.std(ddof=1) / math.sqrt(sq.size)
    assert _within(cell_var["folded"], cell_var["full"])
    # first coefficients: mean 0 and n * E theta_j^2 = rho1^2 = 1
    thetas = {k: np.array([est.theta[:5] for est in _estimates(v, n)])
              for k, v in (("folded", folded), ("full", full))}
    for j in range(5):
        a, b = thetas["folded"][:, j], thetas["full"][:, j]
        assert _within(a, b) and _within(n * a * a, n * b * b)
        assert abs((n * a * a).mean() - 1.0) <= 5.0 * (n * a * a).std(ddof=1) / math.sqrt(reps)


def test_period_sums_proxy_variance_matches_full_paths():
    # the quantity the penalty reads, at the desk-scale n = 100, p = 1001
    n, p, reps = 100, 1001, 300
    spec = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.chi_squared(3.0))
    folded, full = _folded_and_path_sums(SignalSpec.benchmark(), spec, n, p, reps)
    a, b = (np.array([estimate_proxy_variance(est) for est in _estimates(v, n)])
            for v in (folded, full))
    assert _within(a, b)
    # sd of a sample sd is about sd / sqrt(2 (reps - 1)) for near-normal draws
    sd_se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(2.0 * (reps - 1))
    assert abs(a.std(ddof=1) - b.std(ddof=1)) <= 5.0 * sd_se


ENGINE_NOISE = (
    NoiseSpec(rho1=0.5, rho2=0.5),
    NoiseSpec(rho1=0.8, rho2=0.4, rho_check=0.6, jump_intensity=2.0, jump_law="two_point"),
)


@pytest.mark.parametrize("n, p, reps", [(20, 101, 400), (20, 100, 400), (100, 1001, 300)])
@pytest.mark.parametrize("spec", ENGINE_NOISE, ids=["no_jumps", "jumps"])
def test_engine_estimates_match_full_path_estimates_in_law(spec, n, p, reps):
    # the engine draws the Brownian part of its M = min(n, p - 1)
    # coefficients in coefficient space and the rest through the period
    # sums; full paths draw one normal per cell of all n*p (other seeds).
    # n = 100, p = 1001 is the desk scale, where the proxy-variance
    # window reads j = 10..100
    S = SignalSpec.benchmark()
    engine = replication_estimates(n * cell_integrals(S, p), spec, n, RngStream.span(81, 0, reps))
    full = [estimate_coefficients(sample_observations(S, spec, n=n, p=p, rng=RngStream(82, r)))
            for r in range(reps)]
    assert all(est.theta.size == n for est in engine) and all(est.theta.size == p - 1 for est in full)
    for j in (1, 2, 3, 8, 15, n):
        a, b = (np.array([est.theta[j - 1] for est in ests]) for ests in (engine, full))
        assert _within(a, b) and _within(n * a * a, n * b * b)
    a, b = (np.array([estimate_proxy_variance(est) for est in ests]) for ests in (engine, full))
    assert _within(a, b)
    # sd of a sample sd is about sd / sqrt(2 (reps - 1)) for near-normal draws
    sd_se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(2.0 * (reps - 1))
    assert abs(a.std(ddof=1) - b.std(ddof=1)) <= 5.0 * sd_se


@pytest.mark.parametrize("p", [101, 100])
@pytest.mark.parametrize("spec", ENGINE_NOISE, ids=["no_jumps", "jumps"])
def test_engine_block_is_its_streams_drawn_one_at_a_time(spec, p):
    n = 30
    drift = n * cell_integrals(SignalSpec.benchmark(), p)
    streams = RngStream.span(5, 10, 17)
    block = replication_estimates(drift, spec, n, streams)
    for est, stream in zip(block, streams):
        [one] = replication_estimates(drift, spec, n, [RngStream(5, stream.stream_index)])
        assert np.array_equal(est.theta, one.theta)


@pytest.mark.parametrize("n, p", [(30, 101), (30, 100), (200, 101)])
def test_engine_brownian_part_is_plain_numpy_normals(n, p):
    # with no signal, no semi-Markov part and no jumps, replication r's
    # estimates are rho1 / sqrt(n) times the first M = min(n, p - 1)
    # normals that plain numpy draws from substream 2 of stream r
    seed, rho1 = 19, 0.7
    ests = replication_estimates(n * cell_integrals(ZERO, p), NoiseSpec(rho1=rho1, rho2=0.0), n,
                                 RngStream.span(seed, 0, 4))
    for r, est in enumerate(ests):
        gen = np.random.Generator(np.random.Philox(SeedSequence(seed, spawn_key=(r, 2))))
        assert np.array_equal(est.theta, rho1 / math.sqrt(n) * gen.standard_normal(min(n, p - 1)))


def test_risk_engine_memory_does_not_grow_with_the_path():
    # one n*p path at n = 1000, p = 10001 alone would take 80 MB
    cfg = RunConfig(n_values=(1000,), p=10001, replications=2, seed=9, k_star=5)
    tracemalloc.start()
    try:
        run_risk_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_risk_engine_memory_does_not_grow_with_the_chunk():
    # a chunk keeps W <= 16 coefficients per replication: holding its 50
    # replications' length-p rows instead would add 3.8 MiB at p = 10001
    peaks = []
    for reps in (2, 50):
        cfg = RunConfig(n_values=(1000,), p=10001, replications=reps, seed=9, k_star=5)
        tracemalloc.start()
        try:
            run_risk_experiment(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20


def test_risk_engine_memory_does_not_grow_with_the_block():
    # at p = 1001 a chunk draws and transforms 8 replications at once; a
    # block of 32 rows added 1.1 MiB here, and one of 50 rows 1.8 MiB
    peaks = []
    for reps in (2, 50):
        cfg = RunConfig(n_values=(1000,), p=1001, replications=reps, seed=9, k_star=5)
        tracemalloc.start()
        try:
            run_risk_experiment(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20


def risk_table(config, tmp_path):
    """Exit code of `driftsel risk-table` on `config`, and its --out."""
    path, out = tmp_path / "run.cfg", tmp_path / "out"
    path.write_text(emit_config(config))
    return main(["risk-table", "--config", str(path), "--out", str(out)]), out


def test_late_family_failure_runs_no_chunk(monkeypatch, tmp_path, capsys):
    # n = 2 passes the knob rules but its family fails the weight-sum
    # check: the engine builds every family before the first chunk of
    # n = 100 and refuses the config, so risk-table exits 2 before any
    # output
    chunks = []
    monkeypatch.setattr(driftsel.risk, "_run_chunk", chunks.append)
    cfg = RunConfig(n_values=(100, 2), p=11, replications=200, k_star=5, eps=0.3)
    code, out = risk_table(cfg, tmp_path)
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == ("driftsel: config error: all candidates shrink below total weight 1; "
                                       "grid too small\n")
    with pytest.raises(ConfigError, match="below total weight 1"):
        run_risk_experiment(cfg)
    assert chunks == []


def test_scoring_budget_runs_no_chunk(monkeypatch, tmp_path, capsys):
    # a chunk scores 50 replications x 2500 distinct profiles x 312
    # coefficients at once at n = 10^6, 2.3 times the budget: the engine
    # refuses the config as it plans the run, after building the families
    # and before the first chunk of n = 20, so risk-table exits 2 before
    # any output
    chunks = []
    monkeypatch.setattr(driftsel.risk, "_run_chunk", chunks.append)
    cfg = RunConfig(n_values=(20, 10**6), p=1001, replications=200, k_star=1, eps=0.02)
    with pytest.raises(ConfigError, match="scoring n=1000000"):
        run_risk_experiment(cfg)
    assert chunks == []
    code, out = risk_table(cfg, tmp_path)
    assert code == 2 and not out.exists()
    [line] = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r"driftsel: config error: scoring n=1000000 needs 50 replications x D=2500 profiles "
                        r"x W=312 coefficients .* raise estimator.eps \(now 0.02\) or lower estimator.k_star",
                        line)
    assert chunks == []
    # the budget counts min(50, replications) rows: 21 replications fit,
    # so that run reaches its first chunk
    class Planned(Exception):
        pass

    def first_chunk(payload):
        raise Planned

    monkeypatch.setattr(driftsel.risk, "_run_chunk", first_chunk)
    with pytest.raises(Planned):
        run_risk_experiment(replace(cfg, n_values=(10**6,), replications=21))
    with pytest.raises(ConfigError, match="needs 22 replications"):
        run_risk_experiment(replace(cfg, n_values=(10**6,), replications=22))


def test_scoring_budget_admits_default_families():
    # the default knobs at n = 10^7 and a wide explicit family at n = 10^5
    for cfg, n in [(RunConfig(), 10**7), (RunConfig(k_star=99, eps=0.0317), 10**5)]:
        distinct, width = resolve_selection(cfg, n)[1].weights.shape
        assert 50 * distinct * width <= driftsel.risk._MAX_SCORE_VALUES


def test_zero_signal_runs_no_chunk(monkeypatch):
    # the relative risk of a zero drift is undefined: the run stops before
    # the first chunk rather than after every replication of the first n
    chunks = []
    monkeypatch.setattr(driftsel.risk, "_run_chunk", chunks.append)
    cfg = RunConfig(n_values=(20, 100), p=101, replications=200, k_star=3,
                    signal_kind="trig", signal_coefficients=(0.0,))
    with pytest.raises(ValueError, match="zero discrete norm"):
        run_risk_experiment(cfg)
    assert chunks == []
