"""Tests for the Monte Carlo risk engine and benchmark constants."""

import math
import tracemalloc

import numpy as np
import pytest

from driftsel.estimator import (
    build_weight_family,
    coefficients_from_period_sums,
    default_delta,
    efficient_delta,
    estimate_coefficients,
    estimate_proxy_variance,
    pinsker_weights,
    select_model,
)
from driftsel.noise import LevyJumpSpec, NoiseSpec, RngStream, sample_observations, sample_period_sums
from driftsel.renewal import InterarrivalLaw
from driftsel.risk import (
    ExperimentConfig,
    pinsker_constant,
    relative_risk,
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
    discrete_fourier_coeffs,
    discrete_norm_sq,
    grid_coefficients,
    grid_values,
)

QUIET = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
ZERO = SignalSpec.trig_polynomial([0.0])


@pytest.fixture(scope="module")
def desk_report():
    cfg = ExperimentConfig(n_values=(20, 100), p=1001, replications=200, base_seed=42, k_star=5)
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
    assert relative_risk(0.0, SignalSpec.trig_polynomial([1.0]), 101) == 0.0
    # published risk over published norm reproduces the published ratio
    flat = SignalSpec.trig_polynomial([math.sqrt(0.1883601)])
    assert relative_risk(0.0398, flat, 101) == pytest.approx(0.211, abs=5e-4)
    # same risk over the analytic benchmark norm 1/24
    bench = relative_risk(0.0398, SignalSpec.benchmark(), 10001)
    assert bench == pytest.approx(0.0398 * 24.0, rel=1e-2)
    with pytest.raises(ValueError):
        relative_risk(0.1, SignalSpec.trig_polynomial([0.0]), 101)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(replications=1)
    with pytest.raises(ValueError):
        ExperimentConfig(delta_variant="fast")
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=())
    for threads in (0, -3):
        with pytest.raises(ValueError):
            ExperimentConfig(threads=threads)
    for varsigma_star in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExperimentConfig(varsigma_star=varsigma_star)


def test_frequency_resolution():
    fixed = ExperimentConfig(p=301)
    assert resolve_frequency(fixed, 100) == 301
    ruled = ExperimentConfig(p=None, p_min=101)
    assert resolve_frequency(ruled, 100) == 101          # rule floor
    assert resolve_frequency(ruled, 4000) == 1004        # ceil(4000^(5/6))
    assert satisfies_h5(100, 47)
    assert not satisfies_h5(100, 10)
    strict = ExperimentConfig(p=10, strict_h5=True)
    with pytest.raises(ValueError):
        resolve_frequency(strict, 100)


def test_delta_resolution():
    assert resolve_delta(ExperimentConfig(), 100) == default_delta(100)
    assert resolve_delta(ExperimentConfig(delta_variant="efficient"), 100) == efficient_delta(100)
    assert resolve_delta(ExperimentConfig(delta=0.05), 100) == 0.05


def test_grid_and_coefficient_routes_agree():
    # the engine scores the selected estimate in coefficient space; replay
    # its streams and score the same selections on the grid instead, on
    # both grid parities, with a family whose selections vary; the oracle
    # is replayed one unpadded profile prefix at a time with the suffix
    # identity (the last coefficient weighs 1/2 on even grids)
    n, reps, seed = 20, 40, 11
    for p in (501, 500):
        cfg = ExperimentConfig(n_values=(n,), p=p, replications=reps, base_seed=seed, k_star=3, eps=0.3)
        row = run_risk_experiment(cfg).rows[0]
        _, family, delta = resolve_selection(cfg, n)
        drift = n * cell_integrals(cfg.signal, p)
        truth = grid_values(cfg.signal, p)
        theta = discrete_fourier_coeffs(cfg.signal, p)
        sq = theta**2
        last = sq[p - 1] if p % 2 else 0.5 * sq[p - 1]
        prefixes = [pinsker_weights(beta, scale, family.upsilon, min(n, p - 1)) for beta, scale in family.members]
        errors, chosen, profile_errors = [], set(), np.zeros(len(prefixes))
        for r in range(reps):
            sums = sample_period_sums(drift, cfg.noise, n, RngStream(seed, r))
            est = coefficients_from_period_sums(sums, n)
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
    cfg = ExperimentConfig(n_values=(n,), p=p, replications=reps, base_seed=12, k_star=k_star)
    _, family, delta = resolve_selection(cfg, n)
    first = {}
    for k, (beta, scale) in enumerate(family.members):
        first.setdefault(family.profile_of[k], pinsker_weights(beta, scale, family.upsilon, min(n, p - 1)))
    prefixes = [first[i] for i in range(len(first))]
    drift = n * cell_integrals(cfg.signal, p)
    for r in range(reps):
        est = replication_estimates(drift, cfg.noise, n, RngStream(12, r))
        sigma = estimate_proxy_variance(est)
        costs = []
        for lam in prefixes:
            th = est.theta[: lam.size]
            quad = np.dot(lam * lam, th * th)
            linear = np.dot(lam, th * th - sigma / n)
            costs.append(quad - 2.0 * linear + delta * sigma * np.dot(lam, lam) / n)
        expected = int(np.argmin(np.array(costs)[family.profile_of]))
        assert select_model(est, family, delta).index == expected


def test_report_is_deterministic():
    cfg = ExperimentConfig(n_values=(20,), p=501, replications=60, base_seed=7, k_star=3)
    a = run_risk_experiment(cfg).rows[0]
    b = run_risk_experiment(cfg).rows[0]
    c = run_risk_experiment(ExperimentConfig(n_values=(20,), p=501, replications=60, base_seed=7, k_star=3, threads=3)).rows[0]
    assert (a.risk, a.risk_se, a.relative, a.oracle) == (b.risk, b.risk_se, b.relative, b.oracle)
    assert (a.risk, a.risk_se, a.relative, a.oracle) == (c.risk, c.risk_se, c.relative, c.oracle)
    other = run_risk_experiment(ExperimentConfig(n_values=(20,), p=501, replications=60, base_seed=8, k_star=3)).rows[0]
    assert other.risk != a.risk


def test_desk_scale_monotone_in_n(desk_report):
    lo, hi = (next(row for row in desk_report.rows if row.n == n) for n in (20, 100))
    assert hi.risk < lo.risk - 3.0 * math.hypot(lo.risk_se, hi.risk_se)


def test_desk_scale_oracle_inequality(desk_report):
    for row in desk_report.rows:
        assert row.oracle <= row.risk + 1e-12
        assert row.risk <= 1.5 * row.oracle + 10.0 / row.n


def test_desk_scale_relative_column(desk_report):
    bench = SignalSpec.benchmark()
    for row in desk_report.rows:
        norm = discrete_norm_sq(grid_values(bench, row.p))
        assert row.relative == pytest.approx(row.risk / norm, rel=1e-14)


def test_noiseless_oracle_is_the_truncation_error():
    S = SignalSpec.benchmark()
    n, p = 5, 101
    cfg = ExperimentConfig(
        signal=S, noise=QUIET, n_values=(n,), p=p, replications=2,
        base_seed=3, k_star=2, eps=0.5,
    )
    row = run_risk_experiment(cfg).rows[0]
    est = estimate_coefficients(sample_observations(S, QUIET, n=n, p=p, rng=RngStream(3, 0)))
    theta_grid = grid_coefficients(grid_values(S, p))
    sq = theta_grid**2
    family = build_weight_family(n, p, eps=0.5, k_star=2)
    errors = []
    for beta, scale in family.members:
        w = pinsker_weights(beta, scale, family.upsilon, min(n, p - 1))
        m = w.size
        d = w * est.theta[:m] - theta_grid[:m]
        errors.append(np.dot(d, d) + sq[m : p - 1].sum() + sq[p - 1])
    assert row.oracle == pytest.approx(min(errors), rel=1e-12)


def test_efficiency_trend_on_smooth_signals():
    # scaling the risk by n^(2/3) should not grow along the geometric
    # sample sweep; this is the efficiency direction at desk scale
    smooth = SignalSpec.trig_polynomial([0.2, 0.7, -0.3])
    exp_noise = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.exponential(1.0 / 3.0))
    cfg = ExperimentConfig(
        signal=smooth, noise=exp_noise, n_values=(100, 400, 1600), p=601,
        replications=120, base_seed=601, k_star=5,
    )
    rows = run_risk_experiment(cfg).rows
    scaled = [(r.n ** (2.0 / 3.0) * r.risk, r.n ** (2.0 / 3.0) * r.risk_se) for r in rows]
    for (s1, e1), (s2, e2) in zip(scaled, scaled[1:]):
        assert s2 - s1 <= 3.0 * math.hypot(e1, e2)


def _within(a, b, k=5.0):
    """Two samples whose means differ by at most k combined standard errors."""
    se = math.hypot(a.std(ddof=1) / math.sqrt(a.size), b.std(ddof=1) / math.sqrt(b.size))
    return abs(a.mean() - b.mean()) <= k * se


def _engine_and_path_sums(S, spec, n, p, reps):
    """Period sums from the engine's sampler and from full paths (other seeds)."""
    drift = n * cell_integrals(S, p)
    folded = np.array([sample_period_sums(drift, spec, n, RngStream(81, r)) for r in range(reps)])
    full = np.array([
        sample_observations(S, spec, n=n, p=p, rng=RngStream(82, r)).increments.reshape(n, p).sum(0)
        for r in range(reps)
    ])
    return folded, full


@pytest.mark.parametrize(
    "levy",
    [
        NoiseSpec(rho1=1.0, rho2=0.0),
        NoiseSpec(rho1=1.0, rho2=0.0, rho_check=0.6, jumps=LevyJumpSpec(intensity=2.0)),
        NoiseSpec(rho1=1.0, rho2=0.0, rho_check=0.0, jumps=LevyJumpSpec(intensity=3.0, law="two_point")),
    ],
    ids=["brownian", "gaussian_jumps", "two_point_jumps"],
)
def test_period_sums_levy_part_matches_full_paths_in_law(levy):
    n, p, reps = 20, 101, 400
    folded, full = _engine_and_path_sums(ZERO, levy, n, p, reps)
    # each folded cell sums n cells of width 1/p: variance n/p
    cell_var = {k: (v * v).ravel() / (n / p) for k, v in (("folded", folded), ("full", full))}
    for sq in cell_var.values():
        assert abs(sq.mean() - 1.0) <= 5.0 * sq.std(ddof=1) / math.sqrt(sq.size)
    assert _within(cell_var["folded"], cell_var["full"])
    # first coefficients: mean 0 and n * E theta_j^2 = rho1^2 = 1
    thetas = {k: np.array([coefficients_from_period_sums(row, n).theta[:5] for row in v])
              for k, v in (("folded", folded), ("full", full))}
    for j in range(5):
        a, b = thetas["folded"][:, j], thetas["full"][:, j]
        assert _within(a, b) and _within(n * a * a, n * b * b)
        assert abs((n * a * a).mean() - 1.0) <= 5.0 * (n * a * a).std(ddof=1) / math.sqrt(reps)


def test_period_sums_proxy_variance_matches_full_paths():
    # the quantity the penalty reads, at the desk-scale n = 100, p = 1001
    n, p, reps = 100, 1001, 300
    spec = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.chi_squared(3.0))
    folded, full = _engine_and_path_sums(SignalSpec.benchmark(), spec, n, p, reps)
    a, b = (np.array([estimate_proxy_variance(coefficients_from_period_sums(row, n)) for row in v])
            for v in (folded, full))
    assert _within(a, b)
    # sd of a sample sd is about sd / sqrt(2 (reps - 1)) for near-normal draws
    sd_se = math.hypot(a.std(ddof=1), b.std(ddof=1)) / math.sqrt(2.0 * (reps - 1))
    assert abs(a.std(ddof=1) - b.std(ddof=1)) <= 5.0 * sd_se


def test_risk_engine_memory_does_not_grow_with_the_path():
    # one n*p path at n = 1000, p = 10001 alone would take 80 MB
    cfg = ExperimentConfig(n_values=(1000,), p=10001, replications=2, base_seed=9, k_star=5)
    tracemalloc.start()
    try:
        run_risk_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
