"""Tests for coefficient estimation, proxy variance, and model selection."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsel.estimator import (
    CoefficientEstimates,
    WeightFamily,
    build_weight_family,
    default_delta,
    efficient_delta,
    estimate_coefficients,
    estimate_proxy_variance,
    penalty,
    pinsker_weights,
    select_model,
    selection_cost,
)
from driftsel.noise import NoiseSpec, ObservationPath, RngStream, sample_observations
from driftsel.renewal import InterarrivalLaw
from driftsel.signal import (
    SignalSpec,
    coefficients_to_grid,
    correction_coeffs,
    discrete_fourier_coeffs,
    grid_values,
)

QUIET = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
EXP_SPEC = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.exponential(1.0 / 3.0))


def noiseless_path(S, n, p):
    return sample_observations(S, QUIET, n=n, p=p, rng=RngStream(0, 0))


def padded(profiles, width):
    """Profile prefixes as the rows of a zero-padded matrix of the given width."""
    rows = np.zeros((len(profiles), width))
    for i, lam in enumerate(profiles):
        rows[i, : lam.size] = lam
    return rows


def test_noiseless_coefficients_match_corrected_coefficients():
    S = SignalSpec.trig_polynomial([0.3, 1.0, -0.4, 0.0, 0.2])
    for n, p in ((3, 16), (4, 25), (5, 40)):
        est = estimate_coefficients(noiseless_path(S, n, p))
        bar = (discrete_fourier_coeffs(S, p) + correction_coeffs(S, p))[: p - 1]
        assert np.allclose(est.theta, bar, atol=1e-14)


def test_constant_signal_coefficients():
    est = estimate_coefficients(noiseless_path(SignalSpec.trig_polynomial([1.0]), 2, 9))
    assert est.theta[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(est.theta[1:]).max() < 1e-13


def test_pure_basis_coefficient():
    S = SignalSpec.trig_polynomial([0.0, 0.0, 1.0])
    p = 32
    est = estimate_coefficients(noiseless_path(S, 4, p))
    assert est.theta[2] == pytest.approx(1.0 + correction_coeffs(S, p)[2], abs=1e-14)


def test_coefficients_linear_in_increments():
    obs = sample_observations(SignalSpec.benchmark(), EXP_SPEC, n=2, p=17, rng=RngStream(8, 0))
    doubled = ObservationPath(n=obs.n, p=obs.p, y=2.0 * obs.y)
    assert np.array_equal(estimate_coefficients(doubled).theta, 2.0 * estimate_coefficients(obs).theta)


def test_coefficients_need_three_points_per_period():
    with pytest.raises(ValueError):
        estimate_coefficients(ObservationPath(n=2, p=2, y=np.zeros(5)))


def test_coefficient_moments_under_noise():
    # for S = 0 each coefficient is centred and n * E theta[j]^2 tends to
    # the proxy variance, here 1/4 + 1/12 = 1/3
    reps, n, p = 3000, 20, 51
    zero = SignalSpec.trig_polynomial([0.0])
    vals = np.empty(reps)
    for r in range(reps):
        obs = sample_observations(zero, EXP_SPEC, n=n, p=p, rng=RngStream(501, r))
        vals[r] = estimate_coefficients(obs).theta[1]
    se_mean = vals.std(ddof=1) / np.sqrt(reps)
    assert abs(vals.mean()) <= 3.0 * se_mean
    scaled = n * vals**2
    se_var = scaled.std(ddof=1) / np.sqrt(reps)
    assert abs(scaled.mean() - 1.0 / 3.0) <= 3.0 * se_var


def test_proxy_variance_hand_value():
    theta = np.array([0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0])
    est = CoefficientEstimates(n=4, p=8, theta=theta)
    assert estimate_proxy_variance(est) == pytest.approx(0.75)


def test_proxy_variance_empty_window():
    # sqrt(n) beyond min(p, n) leaves nothing to average
    est = CoefficientEstimates(n=100, p=5, theta=np.ones(4))
    assert estimate_proxy_variance(est) == 0.0


def test_proxy_variance_window_stops_at_estimable_frequencies():
    theta = np.array([5.0, 0.3, 0.2])
    est = CoefficientEstimates(n=8, p=4, theta=theta)
    assert estimate_proxy_variance(est) == pytest.approx(2.0 * (0.09 + 0.04))


def test_proxy_variance_error_shape():
    # Monte Carlo check that mean |sigma_hat - sigma| scales like
    # sqrt(n)/min(p,n) + 1/sqrt(min(p,n)): the fitted constant should be
    # stable when n doubles
    bench = SignalSpec.benchmark()
    fitted = {}
    for k, n in enumerate((50, 100)):
        reps = 300
        devs = np.empty(reps)
        for r in range(reps):
            obs = sample_observations(bench, EXP_SPEC, n=n, p=1001, rng=RngStream(502, 1000 * k + r))
            devs[r] = abs(estimate_proxy_variance(estimate_coefficients(obs)) - 1.0 / 3.0)
        p_check = min(1001, n)
        fitted[n] = devs.mean() / (np.sqrt(n) / p_check + 1.0 / np.sqrt(p_check))
    assert 0.5 <= fitted[100] / fitted[50] <= 2.0


def test_pinsker_weight_hand_values():
    w = pinsker_weights(beta=1, scale=1.0, upsilon=1000.0, cap=100)
    omega = (6.0 / math.pi**2 * 1000.0) ** (1.0 / 3.0)
    assert omega == pytest.approx(8.471308576374193)
    assert w.size == 8
    assert np.array_equal(w[:6], np.ones(6))      # flat below the cutoff 7
    assert w[6] == pytest.approx(0.17368138146656065)
    assert w[7] == pytest.approx(0.05563586453321223)


def test_pinsker_weight_flat_when_bandwidth_is_small():
    # bandwidth below 1 leaves only the flat indicator part
    w = pinsker_weights(beta=3, scale=0.1, upsilon=8.0, cap=50)
    assert np.array_equal(w, np.ones(2))


def test_pinsker_weight_cap():
    w = pinsker_weights(beta=1, scale=1.0, upsilon=1000.0, cap=3)
    assert w.size == 3


def test_pinsker_weight_validation():
    with pytest.raises(ValueError):
        pinsker_weights(beta=0, scale=1.0, upsilon=10.0, cap=10)
    with pytest.raises(ValueError):
        pinsker_weights(beta=1, scale=0.0, upsilon=10.0, cap=10)
    with pytest.raises(ValueError):
        pinsker_weights(beta=1, scale=1.0, upsilon=1.0, cap=10)


@settings(max_examples=80, deadline=None)
@given(
    beta=st.integers(min_value=1, max_value=6),
    scale=st.floats(min_value=0.05, max_value=3.0),
    upsilon=st.floats(min_value=2.5, max_value=1e5),
)
def test_pinsker_weight_shape_properties(beta, scale, upsilon):
    w = pinsker_weights(beta, scale, upsilon, cap=500)
    assert np.all(w >= 0.0)
    assert np.all(w <= 1.0)
    assert np.all(np.diff(w) <= 1e-15)
    assert w.size <= 500


def test_family_cardinality():
    fam = build_weight_family(n=50, p=101, eps=0.5, k_star=2, upsilon=50.0)
    assert fam.m == 4
    assert len(fam.members) == 8
    assert [beta for beta, _ in fam.members] == [1, 1, 1, 1, 2, 2, 2, 2]
    assert fam.members[0][1] == pytest.approx(0.5)
    assert fam.members[3][1] == pytest.approx(2.0)
    assert len(fam.profile_of) == 8
    rows = padded([pinsker_weights(beta, scale, 50.0, 50) for beta, scale in fam.members], fam.weights.shape[1])
    assert fam.weights[fam.profile_of].tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "n, p, kwargs",
    [
        (20, 101, {}),
        (100, 1001, {}),
        (1000, 10001, {}),
        (50, 101, {"eps": 0.5, "k_star": 2, "upsilon": 50.0}),
        # upsilon < e: the cutoff is 1, so the flat prefix is empty
        (100, 101, {"eps": 0.05, "k_star": 3, "upsilon": 2.7}),
    ],
)
def test_family_matches_the_taper_formula(n, p, kwargs):
    # the profiles pinsker_weights returns early as flat must be exactly
    # what the full taper formula gives
    def taper(beta, scale, upsilon, cap):
        j_star = 1 + math.floor(math.log(upsilon))
        d_beta = (beta + 1) * (2 * beta + 1) / (math.pi ** (2 * beta) * beta)
        omega = (d_beta * scale * upsilon) ** (1.0 / (2 * beta + 1))
        j = np.arange(1, min(cap, max(j_star - 1, math.floor(omega))) + 1, dtype=float)
        lam = np.where(j < j_star, 1.0, np.where(j <= omega, 1.0 - (j / omega) ** beta, 0.0))
        return np.trim_zeros(lam, "b")

    fam = build_weight_family(n, p, **kwargs)
    cap = min(n, p - 1)
    weights = [taper(beta, scale, fam.upsilon, cap) for beta, scale in fam.members]
    brute = WeightFamily.from_members(fam.k_star, fam.eps, fam.m, fam.upsilon, fam.members, weights)
    assert fam.members == brute.members
    assert np.array_equal(fam.profile_of, brute.profile_of)
    assert fam.weights.shape == brute.weights.shape
    assert fam.weights.tobytes() == brute.weights.tobytes()
    assert fam.weights.dtype == np.float64 and fam.weights.flags.c_contiguous
    assert fam.weights.shape[1] == max(w.size for w in weights)
    if kwargs.get("upsilon") == 2.7:
        assert not fam.weights[0].any() and fam.weights.shape[0] > 1


def test_family_defaults_track_sample_size():
    fam = build_weight_family(n=100, p=1001)
    assert fam.eps == pytest.approx(1.0 / math.log(100.0))
    assert fam.m == 21
    assert fam.k_star == 102
    assert len(fam.members) == 102 * 21
    assert fam.upsilon == 100.0


def test_family_weight_sum_bound():
    for n, p in ((30, 101), (200, 401), (1000, 2001)):
        fam = build_weight_family(n=n, p=p)
        assert 1.0 <= fam.max_total <= 1.0 + (fam.upsilon / fam.eps) ** (1.0 / 3.0)


def test_family_rejects_tiny_samples():
    with pytest.raises(ValueError):
        build_weight_family(n=2, p=101)    # default eps = 1/ln 2 > 1
    for n in (0, 1):                       # upsilon = n would not exceed 1
        with pytest.raises(ValueError, match=f"n={n}"):
            build_weight_family(n=n, p=101, eps=0.5)


def test_penalty_values():
    two = np.array([1.0, 1.0])
    assert penalty(two, sigma=1.0, n=100) == pytest.approx(0.02)
    assert penalty(np.zeros(0), sigma=5.0, n=10) == 0.0
    assert penalty(two, sigma=0.0, n=10) == 0.0


def test_cost_vanishes_without_coefficients():
    est = CoefficientEstimates(n=10, p=8, theta=np.zeros(7))
    for size in (1, 3, 5):
        w = np.linspace(1.0, 0.2, size)
        assert selection_cost(w, est, sigma=0.0, delta=0.1) == 0.0


def test_cost_single_coefficient_calculus():
    # J(w) = w^2 - 2w for one unit coefficient and no penalty: the
    # parabola bottoms out at full weight
    est = CoefficientEstimates(n=10, p=8, theta=np.array([1.0, 0, 0, 0, 0, 0, 0]))
    grid = np.linspace(0.0, 1.0, 21)
    costs = [
        selection_cost(np.array([w]), est, sigma=0.0, delta=0.1)
        for w in grid
    ]
    assert costs == pytest.approx([w * w - 2.0 * w for w in grid])
    assert np.argmin(costs) == 20


def test_cost_warns_outside_theory_range():
    est = CoefficientEstimates(n=10, p=8, theta=np.ones(7))
    w = np.array([1.0])
    with pytest.warns(UserWarning):
        selection_cost(w, est, sigma=0.1, delta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        selection_cost(w, est, sigma=0.1, delta=1.0 / 6.0)


def test_cost_rejects_oversized_support():
    est = CoefficientEstimates(n=10, p=4, theta=np.ones(3))
    w = np.ones(5)
    with pytest.raises(ValueError):
        selection_cost(w, est, sigma=0.0, delta=0.1)


def test_default_thresholds():
    assert default_delta(100) == pytest.approx((3.0 + math.log(100.0)) ** -2)
    assert efficient_delta(100) == pytest.approx(1.0 / (6.0 + math.log(100.0)))
    assert 0.0 < default_delta(20) <= 1.0 / 6.0


def test_select_singleton_family():
    est = CoefficientEstimates(n=10, p=8, theta=np.arange(1.0, 8.0))
    only = np.array([1.0, 0.5])
    fam = WeightFamily.from_members(1, 1.0, 1, 10.0, [(1, 1.0)], [only])
    res = select_model(est, fam, delta=0.1)
    assert res.index == 0
    assert np.array_equal(res.coefficients, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_select_empty_family():
    est = CoefficientEstimates(n=10, p=8, theta=np.ones(7))
    fam = WeightFamily.from_members(1, 1.0, 0, 10.0, [], [])
    with pytest.raises(ValueError):
        select_model(est, fam)


def test_select_scores_each_distinct_profile_once(monkeypatch):
    fam = build_weight_family(n=1000, p=10001)
    assert (len(fam.members), *fam.weights.shape) == (4794, 45, 16)
    calls = []

    def counted(lam, *args):
        calls.append(lam.shape)
        return selection_cost(lam, *args)

    monkeypatch.setattr("driftsel.estimator.selection_cost", counted)
    rng = np.random.default_rng(80)
    est = CoefficientEstimates(n=1000, p=10001, theta=rng.normal(0.0, 0.05, 10000))
    res = select_model(est, fam)
    assert calls == [(45, 16)]
    assert res.costs.shape == (len(fam.members),)


def test_select_attains_exhaustive_minimum():
    rng = np.random.default_rng(77)
    est = CoefficientEstimates(n=40, p=101, theta=rng.normal(0.0, 0.3, 100))
    fam = build_weight_family(n=40, p=101, eps=0.3, k_star=3, upsilon=40.0)
    res = select_model(est, fam, delta=0.05)
    sigma = estimate_proxy_variance(est)
    # one cost per member, from a profile rebuilt from the member's label
    rows = padded([pinsker_weights(beta, scale, 40.0, 40) for beta, scale in fam.members], fam.weights.shape[1])
    brute = selection_cost(rows, est, sigma, 0.05)
    assert np.array_equal(res.costs, brute)
    assert res.costs[res.index] == res.costs.min()
    assert res.index == int(np.argmin(brute))


def test_select_breaks_ties_at_lowest_index():
    est = CoefficientEstimates(n=10, p=8, theta=np.ones(7) * 0.3)
    w = np.array([1.0, 1.0])
    fam = WeightFamily.from_members(1, 1.0, 2, 10.0, [(1, 1.0), (1, 2.0)], [w, w.copy()])
    assert fam.weights.shape == (1, 2)
    assert select_model(est, fam, delta=0.1).index == 0


def test_select_invariant_under_candidate_permutation():
    rng = np.random.default_rng(78)
    est = CoefficientEstimates(n=40, p=101, theta=rng.normal(0.0, 0.3, 100))
    fam = build_weight_family(n=40, p=101, eps=0.3, k_star=3, upsilon=40.0)
    flipped = WeightFamily.from_members(
        fam.k_star, fam.eps, fam.m, fam.upsilon, fam.members[::-1],
        [fam.weights[i] for i in fam.profile_of[::-1]],
    )
    a = select_model(est, fam, delta=0.05)
    b = select_model(est, flipped, delta=0.05)
    assert a.costs[a.index] == b.costs[b.index]


def test_select_noiseless_pure_basis():
    # every candidate keeps full weight at frequency 2, so the retained
    # coordinate is recovered exactly and the empirical error of the
    # chosen profile is minimal over the whole family
    S = SignalSpec.trig_polynomial([0.0, 1.0])
    n, p = 4, 25
    est = estimate_coefficients(noiseless_path(S, n, p))
    fam = build_weight_family(n=40, p=p, eps=0.3, k_star=3, upsilon=1000.0)
    res = select_model(est, fam)
    assert res.coefficients[1] == est.theta[1]
    target = grid_values(S, p)
    errors = []
    for i in fam.profile_of:
        w = fam.weights[i]
        coeffs = np.zeros(p)
        coeffs[: w.size] = w * est.theta[: w.size]
        errors.append(np.mean((coefficients_to_grid(coeffs) - target) ** 2))
    assert errors[res.index] <= min(errors) + 1e-12


def test_selection_grid_values_match_coefficients():
    rng = np.random.default_rng(79)
    est = CoefficientEstimates(n=20, p=25, theta=rng.normal(0.0, 0.5, 24))
    fam = build_weight_family(n=20, p=25, eps=0.4, k_star=2, upsilon=20.0)
    res = select_model(est, fam, delta=0.05)
    padded = np.zeros(25)
    padded[:24] = res.coefficients
    assert np.array_equal(res.grid_values(), coefficients_to_grid(padded))
