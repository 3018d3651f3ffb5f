"""Tests for the Monte Carlo risk engine and benchmark constants."""

import ast
import inspect
import math
import os
import re
import textwrap
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from driftsel.noise import NoiseSpec, sample_observations, stream_keys
from driftsel.renewal import InterarrivalLaw
from driftsel.risk import (
    ConfigError,
    RunConfig,
    _projected,
    _projection,
    _run_chunk,
    _transformed,
    _truth,
    block_rows,
    pinsker_constant,
    projects,
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
            [est] = replication_estimates(drift, cfg.noise, n, stream_keys(seed, r, r + 1))
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
        [est] = replication_estimates(drift, cfg.noise, n, stream_keys(12, r, r + 1))
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
    "n, knobs, projected",
    [(20, {}, True), (20, {"k_star": 3, "eps": 0.3}, True), (9, {"k_star": 2, "eps": 0.5}, True),
     (60, {"k_star": 3, "eps": 0.3}, False)],
    ids=["default", "k3_eps03", "one_profile", "rfft_k3_eps03"],
)
def test_chunk_block_matches_a_replication_loop(n, knobs, projected, p):
    # the chunk selects and scores its replications as one block; one
    # replication at a time through select_model must give the same bits
    # (at n = 9 with k_star = 2 every member is flat: one profile), on
    # either route, and whether the plan made the chunk's projection or
    # the chunk makes it itself
    cfg = RunConfig(n_values=(n,), p=p, replications=100, seed=5, **knobs)
    assert projects(n, p, cfg.noise) == projected
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
    payload = (cfg.noise, n, family.weights, delta, *carried[:3], cfg.seed, start, stop)
    selected, profile_sum = _run_chunk((*payload, None))
    planned = _run_chunk((*payload, _projection(drift, n) if projected else None))
    assert np.array_equal(planned[0], selected) and np.array_equal(planned[1], profile_sum)
    expected, total = [], np.zeros(family.weights.shape[0])
    for r in range(start, stop):
        [est] = replication_estimates(drift, cfg.noise, n, stream_keys(cfg.seed, r, r + 1))
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
    # a chunk draws and transforms block_rows(n, p, noise) replications at
    # a time: on the rfft route (n = 100) max(1, _BLOCK_VALUES // p), 8 at
    # p = 1001, and on the projection route (n = 20) about _BLOCK_TERMS
    # (term x bin) products, the whole chunk; any other block size gives
    # the same bits
    p = 1001
    for n, projected, default_sizes in ((20, True, [50]), (100, False, [8] * 6 + [2])):
        cfg = RunConfig(n_values=(n,), p=p, replications=100, seed=7, k_star=3, **knobs)
        assert projects(n, p, cfg.noise) == projected
        _, family, delta = resolve_selection(cfg, n)
        truth = _truth(cfg.signal, n, p, family.weights.shape[1])[:3]
        payload = (cfg.noise, n, family.weights, delta, *truth, cfg.seed, 50, 100, None)
        sizes = []

        def estimates(drift_sums, noise, n, keys, *projection):
            sizes.append(len(keys))
            return replication_estimates(drift_sums, noise, n, keys, *projection)

        with monkeypatch.context() as patch:
            patch.setattr(driftsel.risk, "replication_estimates", estimates)
            default = _run_chunk(payload)
            assert sizes == default_sizes
            for rows in (1, 3, 8, 50):
                sizes.clear()
                patch.setattr(driftsel.risk, "block_rows", lambda n, p, noise: rows)
                selected, profile_sum = _run_chunk(payload)
                assert sizes == [rows] * (50 // rows) + [50 % rows] * (50 % rows > 0)
                assert np.array_equal(selected, default[0]) and np.array_equal(profile_sum, default[1])


# (config, n values, the ones that project): the golden configs of
# test_golden, the benchmark's workloads and the full-scale preset
ROUTES = [
    (RunConfig(p=101), (20, 40), {20}),
    (RunConfig(p=101, rho_check=0.5, jump_intensity=2.0, jump_law="two_point"), (20, 40), set()),
    (RunConfig(p=1001, k_star=5), (20, 100), {20}),
    (RunConfig(p=1001), (100, 200), set()),
    (RunConfig(p=10001, k_star=5), (1000,), set()),
    (RunConfig(), (20, 100, 200, 1000), {20, 100, 200, 1000}),
]


@pytest.mark.parametrize("cfg, n_values, projected", ROUTES,
                         ids=["golden", "golden_jumps", "desk", "wide_family", "highfreq", "full_scale"])
def test_route_of_every_golden_and_benchmark_config(cfg, n_values, projected):
    # (n / tau_bar + lambda n) * K below p log2(p) / 8 projects: golden
    # n = 20 at p = 101 reads 6.7 x 11 = 73 against 84, and n = 40 reads
    # 13.3 x 21 = 280; desk n = 100 reads 1700 against 1247
    assert {n for n in n_values if projects(n, cfg.p, cfg.noise)} == projected
    # a projected chunk sizes its blocks by terms: all 50 rows at n = 20,
    # one row at n = 1000, p = 100001
    assert {n: block_rows(n, cfg.p, cfg.noise) for n in projected} == {
        n: {20: 50, 100: 37, 200: 9, 1000: 1}[n] for n in projected}


def _on_cell_edges(real):
    """`_renewal_epochs` with every epoch moved up to the right edge of
    its cell, the grid point that closes it."""
    def epochs(law, horizon, keys):
        times, counts = real(law, horizon, keys)
        p = epochs.p
        return np.ceil(times * p) / p, counts
    return epochs


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), p=st.integers(3, 1500), rows=st.integers(1, 6), seed=st.integers(0, 2**32),
       law=st.sampled_from(["exponential(0.5)", "gamma(2, 0.25)", "chi_squared(3)", "chi_squared(0.5)"]),
       marks=st.sampled_from(["normal", "rademacher", "uniform"]),
       jumps=st.sampled_from([(1.0, 0.0, "gaussian"), (0.6, 0.5, "gaussian"), (0.0, 3.0, "two_point")]),
       edges=st.booleans())
def test_projection_matches_the_rfft_route(n, p, rows, seed, law, marks, jumps, edges):
    # the projection route computes the rfft route's thetas from the same
    # draws, up to rounding: within 1e-13 (400 examples saw 1.3e-15),
    # odd and even p, n above p - 1, and every epoch on a cell edge
    rho_check, intensity, jump_law = jumps
    cfg = RunConfig(seed=seed, interarrival=law, marks=marks, rho_check=rho_check, jump_intensity=intensity,
                    jump_law=jump_law)
    drift = n * cell_integrals(cfg.signal, p)
    streams = stream_keys(seed, 0, rows)
    with pytest.MonkeyPatch.context() as patch:
        if edges:
            moved = _on_cell_edges(noise._renewal_epochs)
            moved.p = p
            patch.setattr(noise, "_renewal_epochs", moved)
        expected = _transformed(drift, cfg.noise, n, streams)
        projected = _projected(*_projection(drift, n), cfg.noise, n, streams)
    assert projected.shape == expected.shape == (rows, min(n, p - 1))
    assert np.abs(projected - expected).max() <= 1e-13


def test_projected_chunk_memory_stays_within_the_term_budget():
    # n = 1000 at p = 100001 projects one row a block: its (terms x bins)
    # products, about 333 x 501 complex values, are 2.7 MB, and the
    # chunk's traced peak 3.3 MiB; blocks of 4 rows peaked at 11.7 MiB
    n, p = 1000, 100001
    cfg = RunConfig(n_values=(n,), p=p, replications=50, seed=9, k_star=5)
    _, family, delta = resolve_selection(cfg, n)
    truth, tail, drift, _ = _truth(cfg.signal, n, p, family.weights.shape[1])
    payload = (cfg.noise, n, family.weights, delta, truth, tail, drift, cfg.seed, 0, 50, _projection(drift, n))
    tracemalloc.start()
    try:
        _run_chunk(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


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
        _run_chunk((cfg.noise, 20, family.weights, delta, truth, tail, drift, cfg.seed, start, start + 50, None))
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
    # n = 20 projects at p = 101 and n = 30 does not
    assert [projects(n, 101, cfg.noise) for n in (20, 30)] == [True, False]
    for n in (20, 30):
        (_, _, weights, _, truth, tail, drift, *_, projection), *rest = [pl for pl in payloads if pl[1] == n]
        assert all(pl[4] is truth and pl[6] is drift and pl[10] is projection for pl in rest)
        assert not truth.flags.writeable and not drift.flags.writeable
        assert np.array_equal(drift, n * real_integrals(cfg.signal, 101))
        assert np.array_equal(truth, discrete_fourier_coeffs(cfg.signal, 101)[: weights.shape[1]])
        if n == 20:
            drift_theta, roots = projection
            assert np.array_equal(drift_theta, grid_coefficients(drift, 20))
            assert np.allclose(roots, np.exp(-2j * np.pi * np.arange(101) / 101), rtol=0, atol=1e-15)
        else:
            assert projection is None
    # a payload names its replications by index alone: each chunk
    # derives its own stream keys
    assert [(pl[7], pl[8], pl[9]) for pl in payloads] == [(3, 0, 50), (3, 50, 100), (3, 100, 120)] * 2


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
    est = estimate_coefficients(sample_observations(S, QUIET, n=n, p=p, keys=stream_keys(3, 0, 1)[0]))
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
    folded = folded_path_sums(drift, spec, n, stream_keys(81, 0, reps))
    full = np.array([
        sample_observations(S, spec, n=n, p=p, keys=stream_keys(82, r, r + 1)[0]).increments.reshape(n, p).sum(0)
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
    engine = replication_estimates(n * cell_integrals(S, p), spec, n, stream_keys(81, 0, reps))
    full = [estimate_coefficients(sample_observations(S, spec, n=n, p=p, keys=stream_keys(82, r, r + 1)[0]))
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
    streams = stream_keys(5, 10, 17)
    block = replication_estimates(drift, spec, n, streams)
    for est, keys in zip(block, streams):
        [one] = replication_estimates(drift, spec, n, [keys])
        assert np.array_equal(est.theta, one.theta)


@pytest.mark.parametrize("n, p", [(20, 101), (30, 100), (200, 101), (5, 1001)])
@pytest.mark.parametrize("spec", ENGINE_NOISE, ids=["no_jumps", "jumps"])
def test_both_routes_keep_the_bits_of_one_row(spec, n, p):
    # each route, called directly whatever projects() says, gives a
    # block's rows the bits of one stream at a time
    drift = n * cell_integrals(SignalSpec.benchmark(), p)
    streams = stream_keys(5, 10, 17)
    for route in (lambda keys: _transformed(drift, spec, n, keys),
                  lambda keys: _projected(*_projection(drift, n), spec, n, keys)):
        block = route(streams)
        for row, keys in zip(block, streams):
            assert np.array_equal(row, route([keys])[0])


@pytest.mark.parametrize("n, p", [(30, 101), (30, 100), (200, 101)])
def test_engine_brownian_part_is_plain_numpy_normals(n, p):
    # with no signal, no semi-Markov part and no jumps, replication r's
    # estimates are rho1 / sqrt(n) times the first M = min(n, p - 1)
    # normals that plain numpy draws from substream 2 of stream r
    seed, rho1 = 19, 0.7
    ests = replication_estimates(n * cell_integrals(ZERO, p), NoiseSpec(rho1=rho1, rho2=0.0), n,
                                 stream_keys(seed, 0, 4))
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


def test_risk_engine_holds_nothing_per_replication_but_its_results(monkeypatch):
    # with every chunk stubbed to one shared result pair, a run of 10^6
    # replications holds each replication's selected error, 8 bytes, a
    # temporary of that size for its standard error, and 20000 payloads
    # that name their replications by index: 20 bytes a replication here.
    # Every replication's stream keys alone take 64, and deriving them
    # for the whole run peaked at 212
    reps = 10**6
    cfg = RunConfig(n_values=(20,), p=101, replications=reps, seed=3)
    result = (np.zeros(50), np.zeros(resolve_selection(cfg, 20)[1].weights.shape[0]))
    monkeypatch.setattr(driftsel.risk, "_run_chunk", lambda payload: result)
    tracemalloc.start()
    try:
        [row] = run_risk_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.replications == reps and row.risk == 0.0
    assert peak < 32 * reps


# the names of numpy's BLAS-backed products: a chunk may call none of them
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def _is_ours(obj) -> bool:
    code = getattr(inspect.unwrap(obj), "__code__", None)
    return code is not None and Path(code.co_filename).parent == Path(driftsel.__file__).parent


def _methods(cls) -> list:
    """The functions a class of ours defines, properties' getters included."""
    found = []
    for attr in vars(cls).values():
        attr = getattr(attr, "__func__", getattr(attr, "fget", getattr(attr, "func", attr)))
        if _is_ours(attr):
            found.append(inspect.unwrap(attr))
    return found


def _reached(start) -> dict:
    """Every function of ours that `start` can reach, by qualified name,
    with the syntax tree of each: each global it names that is a function
    of ours, each method of a class of ours it names, and each method of
    ours whose name it reads as an attribute (`law.sample` reaches every
    method called `sample`), a superset of what it calls."""
    modules = (driftsel.estimator, noise, driftsel.renewal, driftsel.risk, driftsel.signal)
    by_attr = {}
    for module in modules:
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for fn in _methods(obj):
                    by_attr.setdefault(fn.__name__, []).append(fn)
    reached, todo = {}, [start]
    while todo:
        fn = inspect.unwrap(todo.pop())
        name = f"{fn.__module__}.{fn.__qualname__}"
        if name in reached:
            continue
        reached[name] = tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                target = fn.__globals__.get(node.id)
                if inspect.isclass(target) and target.__module__.startswith("driftsel."):
                    todo += _methods(target)
                elif callable(target) and _is_ours(target):
                    todo.append(target)
            elif isinstance(node, ast.Attribute):
                todo += by_attr.get(node.attr, [])
    return reached


def _blas_calls(tree) -> list:
    """Each `@` operator and each name of BLAS_NAMES in a syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append("@")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(node.id)
    return found


def test_a_chunk_calls_no_blas():
    # forked workers inherit OpenBLAS's thread pool, and a BLAS sum's
    # rounding follows its thread count: nothing a chunk reaches may
    # multiply through BLAS
    reached = _reached(_run_chunk)
    assert {"driftsel.noise.stream_keys", "driftsel.noise._rekeyed", "driftsel.noise._jump_sums",
            "driftsel.noise._renewal_epochs", "driftsel.renewal.InterarrivalLaw.sample",
            "driftsel.risk._projected", "driftsel.risk._transformed", "driftsel.signal.bin_coefficients",
            "driftsel.estimator.estimate_proxy_variance", "driftsel.estimator.selection_cost"} <= set(reached)
    assert {name: calls for name, calls in ((name, _blas_calls(tree)) for name, tree in reached.items())
            if calls} == {}
    # the drift's cell integrals, whose `@` runs in the parent's plan, lie
    # outside; the check sees both that `@` and the renewal march's np.dot
    assert "driftsel.signal.cell_integrals" not in reached
    assert _blas_calls(ast.parse(inspect.getsource(driftsel.signal.cell_integrals))) == ["@"]
    assert _blas_calls(ast.parse(inspect.getsource(driftsel.renewal._march_deviation))) == ["dot"]


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
