"""Tests for coefficient estimation, proxy variance, and model selection."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftsel
from driftsel.estimator import (
    CoefficientEstimates,
    WeightFamily,
    build_weight_family,
    default_delta,
    efficient_delta,
    estimate_proxy_variance,
    family_knobs,
    pinsker_weights,
    select_model,
    selection_cost,
)
from driftsel.noise import NoiseSpec, ObservationPath, sample_observations, stream_keys
from driftsel.renewal import InterarrivalLaw
from driftsel.signal import SignalSpec, coefficients_to_grid, grid_values
from reference_coeffs import correction_coeffs, discrete_fourier_coeffs, estimate_coefficients
from reference_family import member_profile, members

QUIET = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
EXP_SPEC = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.exponential(1.0 / 3.0))


def noiseless_path(S, n, p):
    return sample_observations(S, QUIET, n=n, p=p, keys=stream_keys(0, 0, 1)[0])


def padded(profiles, width):
    """Profile prefixes as the rows of a zero-padded matrix of the given width."""
    rows = np.zeros((len(profiles), width))
    for i, lam in enumerate(profiles):
        rows[i, : lam.size] = lam
    return rows


def family_of(members, profiles):
    """Family whose member k has label members[k] and profile profiles[k],
    equal profiles stored once in order of first appearance."""
    first, profile_of = {}, []
    for lam in profiles:
        lam = np.asarray(lam, dtype=float)
        profile_of.append(first.setdefault(lam.tobytes(), (len(first), lam))[0])
    rows = [lam for _, lam in first.values()]
    weights = padded(rows, max((lam.size for lam in rows), default=0))
    beta = np.array([beta for beta, _ in members], dtype=int)
    scale = np.array([scale for _, scale in members], dtype=float)
    return WeightFamily(beta, scale, weights, np.array(profile_of, dtype=np.intp))


def reference_family(n, p, eps=None, k_star=None, varsigma_star=1.0):
    """build_weight_family's knobs (eps, k_star, m, upsilon) from the
    sample-size rules, and its family from one pinsker_weights row per
    member."""
    eps = 1.0 / math.log(n) if eps is None else eps
    k_star = int(100 + math.sqrt(math.log(n))) if k_star is None else k_star
    upsilon = n / varsigma_star
    m = int(1.0 / eps**2)
    members = [(beta, i * eps) for beta in range(1, k_star + 1) for i in range(1, m + 1)]
    profiles = [member_profile(beta, scale, upsilon, min(n, p - 1)) for beta, scale in members]
    return (eps, k_star, m, upsilon), family_of(members, profiles)


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
    obs = sample_observations(SignalSpec.benchmark(), EXP_SPEC, n=2, p=17, keys=stream_keys(8, 0, 1)[0])
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
        obs = sample_observations(zero, EXP_SPEC, n=n, p=p, keys=stream_keys(501, r, r + 1)[0])
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


def test_coefficient_estimates_hold_every_frequency_the_estimator_reads():
    # the profiles and the proxy-variance window read j <= min(n, p - 1);
    # a shorter theta would have summed a short window without an error
    for n, p in ((20, 101), (200, 101), (7, 8)):
        m = min(n, p - 1)
        with pytest.raises(ValueError, match=r"fewer than min\(n, p - 1\)"):
            CoefficientEstimates(n=n, p=p, theta=np.ones(m - 1))
        assert estimate_proxy_variance(CoefficientEstimates(n=n, p=p, theta=np.ones(m))) > 0.0


def test_proxy_variance_does_not_depend_on_the_blas_thread_count():
    # the window j = 141..20000 is 19860 coefficients long: OpenBLAS splits
    # one dot product that long over its threads, and the split changes
    # its rounding, so each thread count runs in its own process
    src = str(Path(driftsel.__file__).resolve().parents[1])
    code = ("import numpy as np\n"
            "from driftsel.estimator import CoefficientEstimates, estimate_proxy_variance\n"
            "rng = np.random.default_rng(1)\n"
            "for _ in range(8):\n"
            "    theta = rng.standard_normal(100000) / 141.0\n"
            "    print(estimate_proxy_variance(CoefficientEstimates(20000, 100001, theta)).hex())\n")
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout.split())
    assert len(printed[0]) == 8 and printed[0] == printed[1]
    theta = np.random.default_rng(1).standard_normal(100000) / 141.0
    window = theta[140:20000]  # n / min(p, n) = 1
    assert estimate_proxy_variance(CoefficientEstimates(20000, 100001, theta)) == pytest.approx(
        math.fsum(window * window), rel=1e-13)


def test_proxy_variance_error_shape():
    # Monte Carlo check that mean |sigma_hat - sigma| scales like
    # sqrt(n)/min(p,n) + 1/sqrt(min(p,n)): the fitted constant should be
    # stable when n doubles
    bench = SignalSpec.benchmark()
    fitted = {}
    for k, n in enumerate((50, 100)):
        reps = 300
        devs = np.empty(reps)
        for r, keys in enumerate(stream_keys(502, 1000 * k, 1000 * k + reps)):
            obs = sample_observations(bench, EXP_SPEC, n=n, p=1001, keys=keys)
            devs[r] = abs(estimate_proxy_variance(estimate_coefficients(obs)) - 1.0 / 3.0)
        p_check = min(1001, n)
        fitted[n] = devs.mean() / (np.sqrt(n) / p_check + 1.0 / np.sqrt(p_check))
    assert 0.5 <= fitted[100] / fitted[50] <= 2.0


def test_pinsker_weight_hand_values():
    [w] = pinsker_weights(beta=1, scales=[1.0], upsilon=1000.0, cap=100)
    omega = (6.0 / math.pi**2 * 1000.0) ** (1.0 / 3.0)
    assert omega == pytest.approx(8.471308576374193)
    assert w.size == 8
    assert np.array_equal(w[:6], np.ones(6))      # flat below the cutoff 7
    assert w[6] == pytest.approx(0.17368138146656065)
    assert w[7] == pytest.approx(0.05563586453321223)


def test_pinsker_weight_flat_when_bandwidth_is_small():
    # bandwidth below 1 leaves only the flat indicator part
    w = pinsker_weights(beta=3, scales=[0.1, 0.2], upsilon=8.0, cap=50)
    assert np.array_equal(w, np.ones((2, 2)))


def test_pinsker_weight_cap():
    w = pinsker_weights(beta=1, scales=[1.0, 2.0], upsilon=1000.0, cap=3)
    assert w.shape == (2, 3)


def test_pinsker_weight_validation():
    with pytest.raises(ValueError):
        pinsker_weights(beta=0, scales=[1.0], upsilon=10.0, cap=10)
    with pytest.raises(ValueError):
        pinsker_weights(beta=1, scales=[1.0, 0.0], upsilon=10.0, cap=10)
    with pytest.raises(ValueError):
        pinsker_weights(beta=1, scales=[1.0], upsilon=1.0, cap=10)


@settings(max_examples=80, deadline=None)
@given(
    beta=st.integers(min_value=1, max_value=6),
    scales=st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=1, max_size=6),
    upsilon=st.floats(min_value=2.5, max_value=1e5),
)
def test_pinsker_weight_shape_properties(beta, scales, upsilon):
    w = pinsker_weights(beta, scales, upsilon, cap=500)
    assert w.shape[0] == len(scales) and w.shape[1] <= 500
    assert np.all(w >= 0.0)
    assert np.all(w <= 1.0)
    assert np.all(np.diff(w, axis=1) <= 1e-15)
    # a row of a block is the bits of its scale's one-row block
    for row, scale in zip(w, scales):
        alone = pinsker_weights(beta, [scale], upsilon, cap=500)[0]
        assert row[: alone.size].tobytes() == alone.tobytes() and not row[alone.size :].any()


def test_family_cardinality():
    fam = build_weight_family(n=50, p=101, eps=0.5, k_star=2, varsigma_star=1.0)
    assert family_knobs(50, 0.5, 2, 100, 1.0) == (0.5, 2, 4, 50.0)
    assert fam.beta.size == fam.scale.size == 8
    assert fam.beta.tolist() == [1, 1, 1, 1, 2, 2, 2, 2]
    assert fam.scale[0] == pytest.approx(0.5)
    assert fam.scale[3] == pytest.approx(2.0)
    assert len(fam.profile_of) == 8
    rows = padded([member_profile(beta, scale, 50.0, 50) for beta, scale in members(fam)], fam.weights.shape[1])
    assert fam.weights[fam.profile_of].tobytes() == rows.tobytes()


@pytest.mark.parametrize(
    "n, p, kwargs",
    [
        (20, 101, {}),
        (100, 1001, {}),
        (1000, 10001, {}),
        (50, 101, {"eps": 0.5, "k_star": 2, "varsigma_star": 1.0}),
        # upsilon = n / varsigma_star < e: the cutoff is 1, so the flat prefix is empty
        (100, 101, {"eps": 0.05, "k_star": 3, "varsigma_star": 100 / 2.7}),
        (3000, 100001, {}),
        (450, 1001, {"k_star": 5, "eps": 0.1}),
        # p = 3 caps every taper at or below the cutoff, where it equals
        # the flat row; p = 11 caps tapers above it
        (100, 3, {}),
        (15, 3, {"k_star": 3, "eps": 0.3}),
        (9, 3, {"k_star": 1, "eps": 0.1}),
        (1000, 11, {"k_star": 3, "eps": 0.3}),
        (3000, 11, {}),
    ],
)
def test_family_matches_the_taper_formula(n, p, kwargs):
    # the builder gives flat members the shared flat row without building
    # their profiles; that must be exactly the family of one pinsker_weights
    # profile per member, deduplicated
    fam = build_weight_family(n, p, **kwargs)
    knobs, expected = reference_family(n, p, **kwargs)
    assert family_knobs(n, kwargs.get("eps"), kwargs.get("k_star"), 100, kwargs.get("varsigma_star", 1.0)) == knobs
    assert members(fam) == members(expected)
    assert fam.beta.dtype == np.int64 and fam.scale.tobytes() == expected.scale.tobytes()
    assert fam.profile_of.dtype == np.intp
    assert np.array_equal(fam.profile_of, expected.profile_of)
    assert fam.weights.shape == expected.weights.shape
    assert fam.weights.tobytes() == expected.weights.tobytes()
    assert fam.weights.dtype == np.float64 and fam.weights.flags.c_contiguous
    if n / kwargs.get("varsigma_star", 1.0) < math.e:
        assert not fam.weights[0].any() and fam.weights.shape[0] > 1
    if p == 3:
        assert fam.weights.shape == (1, 2)


def family_or_error(build, n, p, eps, k_star, varsigma_star):
    """What `build` makes of the knobs: its family, or the message of
    the ValueError it raises."""
    try:
        return build(n, p, eps=eps, k_star=k_star, varsigma_star=varsigma_star)
    except ValueError as exc:
        return str(exc)


def reference_checked(n, p, eps, k_star, varsigma_star):
    """`reference_family` behind the knob rules and the weight-sum checks
    that build_weight_family applies."""
    family_knobs(n, eps, k_star, 100, varsigma_star)
    (eps, _, _, upsilon), family = reference_family(n, p, eps, k_star, varsigma_star)
    total = float(family.weights.sum(axis=1).max())
    if total < 1.0:
        raise ValueError("all candidates shrink below total weight 1; grid too small")
    if total > 1.0 + (upsilon / eps) ** (1.0 / 3.0):
        raise ValueError("a candidate's total weight exceeds 1 + (upsilon/eps)^(1/3)")
    return family


def assert_same_family(n, p, eps=None, k_star=None, varsigma_star=1.0):
    built = family_or_error(build_weight_family, n, p, eps, k_star, varsigma_star)
    expected = family_or_error(reference_checked, n, p, eps, k_star, varsigma_star)
    if isinstance(expected, str):
        assert built == expected
        return
    assert members(built) == members(expected)
    assert built.beta.tobytes() == expected.beta.tobytes() and built.scale.tobytes() == expected.scale.tobytes()
    assert built.weights.shape == expected.weights.shape
    assert built.weights.tobytes() == expected.weights.tobytes()
    assert built.profile_of.tobytes() == expected.profile_of.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=3000) | st.sampled_from([10**4, 10**6]),
    p=st.integers(min_value=3, max_value=2000),
    eps=st.none() | st.floats(min_value=0.1, max_value=0.999),
    k_star=st.none() | st.integers(min_value=1, max_value=8),
    varsigma_star=st.floats(min_value=0.01, max_value=100.0),
)
def test_family_build_matches_the_member_reference(n, p, eps, k_star, varsigma_star):
    # the array build, bit for bit and error for error, against one
    # pinsker_weights row per member; the default k_star (about 100)
    # only with few scales, to keep the reference quick
    if k_star is None and (eps or 1.0 / math.log(n)) < 0.2:
        eps = 0.2
    assert_same_family(n, p, eps, k_star, varsigma_star)


def test_family_build_decides_a_member_at_the_cutoff():
    # member (1, 5 eps) at n = 100 has omega = (d_1 * 5 eps * 100)^(1/3),
    # the cutoff is 1 + floor(ln 100) = 5: step eps an ulp at a time
    # across the eps at which that omega reaches 5
    d_1 = 6.0 / math.pi**2
    omega = lambda eps: (d_1 * (5 * eps) * 100.0) ** (1.0 / 3.0)
    eps = 1.25 / d_1 / 5
    while omega(eps) >= 5.0:
        eps = math.nextafter(eps, 0.0)
    while omega(eps) < 5.0:
        eps = math.nextafter(eps, 1.0)
    steps = [eps]
    for _ in range(4):
        steps = [math.nextafter(steps[0], 0.0), *steps, math.nextafter(steps[-1], 1.0)]
    assert {math.floor(omega(e)) < 5 for e in steps} == {True, False}
    assert all(abs(omega(e) - 5.0) <= 1e-9 * 5.0 for e in steps)
    for e in steps:
        assert_same_family(100, 1001, e, 2)
        # at omega = 5 the taper's fifth weight is 1 - 5/omega = 0, so
        # only above 5 does the member leave the flat row
        profile_of = build_weight_family(100, 1001, eps=e, k_star=2).profile_of
        assert (profile_of[4] == profile_of[0]) == (omega(e) <= 5.0)


def test_family_takes_taper_orders_whose_constant_underflows():
    # pi^(2 beta) overflows a float from beta = 311 on, so d_beta reads 0
    # in the flat test; the exact omega of such an order is about 1/pi,
    # below every cutoff, so its members are flat
    fam = build_weight_family(1000, 1001, eps=0.5, k_star=400)
    lower = build_weight_family(1000, 1001, eps=0.5, k_star=310)
    assert fam.weights.tobytes() == lower.weights.tobytes()
    assert np.array_equal(fam.profile_of[: 310 * 4], lower.profile_of)
    assert (fam.profile_of[310 * 4 :] == fam.profile_of[0]).all() and not fam.weights[fam.profile_of[0]][6:].any()


def test_family_defaults_track_sample_size():
    eps, k_star, m, upsilon = family_knobs(100, None, None, 100, 1.0)
    assert eps == pytest.approx(1.0 / math.log(100.0))
    assert m == 21
    assert k_star == 102
    assert upsilon == 100.0
    fam = build_weight_family(n=100, p=1001)
    assert fam.beta.size == 102 * 21
    assert members(fam)[-1] == (102, 21 * eps)


def test_family_weight_sum_bound():
    for n, p in ((30, 101), (200, 401), (1000, 2001)):
        fam = build_weight_family(n=n, p=p)
        eps, _, _, upsilon = family_knobs(n, None, None, 100, 1.0)
        assert 1.0 <= fam.weights.sum(axis=1).max() <= 1.0 + (upsilon / eps) ** (1.0 / 3.0)


def test_family_rejects_tiny_samples():
    with pytest.raises(ValueError):
        build_weight_family(n=2, p=101)    # default eps = 1/ln 2 > 1
    for p, kwargs in ((11, {"k_star": 5, "eps": 0.3}), (100001, {"eps": 0.1})):
        # upsilon = 2: every taper's total weight is below 1
        with pytest.raises(ValueError, match="below total weight 1"):
            build_weight_family(n=2, p=p, **kwargs)
    for n in (0, 1):                       # upsilon = n would not exceed 1
        with pytest.raises(ValueError, match=f"n={n}"):
            build_weight_family(n=n, p=101, eps=0.5)


@pytest.mark.parametrize(
    "n, eps, k_star0, varsigma_star, rule",
    [
        (20, 1.5, 100, 1.0, "eps must lie in"),
        (2, None, 100, 1.0, "eps must lie in"),            # 1/ln 2 > 1
        (20, None, -200, 1.0, "k_star must be at least 1"),
        (20, None, 100, 1000.0, "upsilon must exceed 1"),
        (20, None, 100, 1e-307, "be finite, got inf"),              # n / varsigma_star overflows
        (20, None, 100, 1.5e-307, "widest bandwidth overflows"),   # 1.33e308, but d_1 * m * eps * upsilon not
        (1, 0.5, 100, 1.0, "n >= 2"),
    ],
)
def test_family_knobs_name_the_rule_and_n(n, eps, k_star0, varsigma_star, rule):
    # the CLI gate reports these messages before anything is built
    for check in (lambda: family_knobs(n, eps, None, k_star0, varsigma_star),
                  lambda: build_weight_family(n, 101, eps=eps, k_star0=k_star0, varsigma_star=varsigma_star)):
        with pytest.raises(ValueError, match=rule) as info:
            check()
        assert f"n={n}" in str(info.value)


def one_row(weights, theta, sigma, n, delta):
    """Costs of each profile (row of `weights`) for one estimate, scored as
    the one-row block `select_model` passes."""
    return selection_cost(weights, theta[None], np.array([sigma]), n, delta)[0]


def test_penalty_values():
    # the penalty is what delta multiplies: read it off two thresholds
    def penalty(weights, sigma, n):
        theta = np.linspace(0.5, -0.5, 7)
        return (one_row(weights, theta, sigma, n, 0.1) - one_row(weights, theta, sigma, n, 0.05)) / 0.05

    two = np.array([[1.0, 1.0]])
    assert penalty(two, sigma=1.0, n=100) == pytest.approx([0.02])
    assert penalty(np.zeros((1, 0)), sigma=5.0, n=10) == [0.0]
    assert penalty(two, sigma=0.0, n=10) == [0.0]


def test_cost_vanishes_without_coefficients():
    est = CoefficientEstimates(n=10, p=8, theta=np.zeros(7))
    for size in (1, 3, 5):
        w = np.linspace(1.0, 0.2, size)[None]
        assert one_row(w, est.theta, sigma=0.0, n=est.n, delta=0.1) == [0.0]


def test_cost_single_coefficient_calculus():
    # J(w) = w^2 - 2w for one unit coefficient and no penalty: the
    # parabola bottoms out at full weight
    est = CoefficientEstimates(n=10, p=8, theta=np.array([1.0, 0, 0, 0, 0, 0, 0]))
    grid = np.linspace(0.0, 1.0, 21)
    costs = one_row(grid[:, None], est.theta, sigma=0.0, n=est.n, delta=0.1)
    assert costs == pytest.approx([w * w - 2.0 * w for w in grid])
    assert np.argmin(costs) == 20


def test_cost_rejects_oversized_support():
    est = CoefficientEstimates(n=10, p=4, theta=np.ones(3))
    w = np.ones((1, 5))
    with pytest.raises(ValueError):
        one_row(w, est.theta, sigma=0.0, n=est.n, delta=0.1)


def test_default_thresholds():
    assert default_delta(100) == pytest.approx((3.0 + math.log(100.0)) ** -2)
    assert efficient_delta(100) == pytest.approx(1.0 / (6.0 + math.log(100.0)))
    assert 0.0 < default_delta(20) <= 1.0 / 6.0


def test_select_singleton_family():
    est = CoefficientEstimates(n=10, p=8, theta=np.arange(1.0, 8.0))
    only = np.array([1.0, 0.5])
    fam = family_of([(1, 1.0)], [only])
    res = select_model(est, fam, delta=0.1)
    assert res.index == 0
    assert np.array_equal(res.coefficients, [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_select_empty_family():
    est = CoefficientEstimates(n=10, p=8, theta=np.ones(7))
    fam = family_of([], [])
    with pytest.raises(ValueError):
        select_model(est, fam)


def test_select_scores_each_distinct_profile_once(monkeypatch):
    fam = build_weight_family(n=1000, p=10001)
    assert (fam.profile_of.size, *fam.weights.shape) == (4794, 45, 16)
    calls = []

    def counted(lam, *args):
        calls.append(lam.shape)
        return selection_cost(lam, *args)

    monkeypatch.setattr("driftsel.estimator.selection_cost", counted)
    rng = np.random.default_rng(80)
    est = CoefficientEstimates(n=1000, p=10001, theta=rng.normal(0.0, 0.05, 10000))
    res = select_model(est, fam)
    assert calls == [(45, 16)]
    assert res.costs.shape == (fam.profile_of.size,)


def test_select_attains_exhaustive_minimum():
    rng = np.random.default_rng(77)
    est = CoefficientEstimates(n=40, p=101, theta=rng.normal(0.0, 0.3, 100))
    fam = build_weight_family(n=40, p=101, eps=0.3, k_star=3, varsigma_star=1.0)
    res = select_model(est, fam, delta=0.05)
    sigma = estimate_proxy_variance(est)
    # one cost per member, from a profile rebuilt from the member's label
    rows = padded([member_profile(beta, scale, 40.0, 40) for beta, scale in members(fam)], fam.weights.shape[1])
    brute = one_row(rows, est.theta, sigma, est.n, 0.05)
    assert np.array_equal(res.costs, brute)
    assert res.costs[res.index] == res.costs.min()
    assert res.index == int(np.argmin(brute))


def test_select_breaks_ties_at_lowest_index():
    est = CoefficientEstimates(n=10, p=8, theta=np.ones(7) * 0.3)
    w = np.array([1.0, 1.0])
    fam = family_of([(1, 1.0), (1, 2.0)], [w, w.copy()])
    assert fam.weights.shape == (1, 2)
    assert select_model(est, fam, delta=0.1).index == 0


def test_select_invariant_under_candidate_permutation():
    rng = np.random.default_rng(78)
    est = CoefficientEstimates(n=40, p=101, theta=rng.normal(0.0, 0.3, 100))
    fam = build_weight_family(n=40, p=101, eps=0.3, k_star=3, varsigma_star=1.0)
    flipped = family_of(members(fam)[::-1], [fam.weights[i] for i in fam.profile_of[::-1]])
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
    fam = build_weight_family(n=40, p=p, eps=0.3, k_star=3, varsigma_star=40 / 1000.0)
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
    fam = build_weight_family(n=20, p=25, eps=0.4, k_star=2, varsigma_star=1.0)
    res = select_model(est, fam, delta=0.05)
    padded = np.zeros(25)
    padded[:24] = res.coefficients
    assert np.array_equal(res.grid_values(), coefficients_to_grid(padded))
