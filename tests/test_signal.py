"""Tests for the signal module: bases, discrete coefficients, corrections, norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftsel import signal as sg
from reference_coeffs import correction_coeffs, discrete_fourier_coeffs

SQRT2 = math.sqrt(2.0)

# Exact Fourier coefficients of the benchmark signal, frozen from a 40-digit
# mpmath evaluation of the closed-form piecewise integrals:
#   theta_1 = 3/16; all sine coefficients vanish (symmetry about 1/2);
#   theta_{2k} = sqrt(2) (-1)^(k+1) (1 - cos(pi k / 2)) / (2 pi^2 k^2).
BENCHMARK_THETA1 = 0.1875
BENCHMARK_COS = {
    1: 0.071644896031344533,
    2: -0.035822448015672266,
    3: 0.0079605440034827259,
    4: 0.0,
    5: 0.0028657958412537813,
    6: -0.0039802720017413629,
}
BENCHMARK_NORM_SQ = 1.0 / 24.0


def benchmark_theta_exact(j):
    """Closed-form continuous Fourier coefficient of the benchmark at index j."""
    if j == 1:
        return 3.0 / 16.0
    if j % 2 == 1:
        return 0.0
    k = j // 2
    return SQRT2 * (-1) ** (k + 1) * (1.0 - math.cos(math.pi * k / 2.0)) / (2.0 * math.pi**2 * k**2)


def random_trig_poly(rng, max_index=9, scale=1.0):
    coeffs = scale * rng.normal(size=max_index)
    return sg.SignalSpec.trig_polynomial(coeffs), np.asarray(coeffs)


def derivative_coeffs(coeffs):
    """Basis coefficients of the derivative of sum_j c_j phi_j.

    phi_{2k}' = -2 pi k phi_{2k+1} and phi_{2k+1}' = 2 pi k phi_{2k}.
    """
    c = np.asarray(coeffs, dtype=float)
    d = np.zeros(c.size + 2)   # slot index j-1 holds basis index j
    for j in range(2, c.size + 1):
        k = j // 2
        if j % 2 == 0:
            d[(2 * k + 1) - 1] += -2.0 * math.pi * k * c[j - 1]
        else:
            d[(2 * k) - 1] += 2.0 * math.pi * k * c[j - 1]
    return d


def l1_norm_dense(f, points=200001):
    t = (np.arange(points) + 0.5) / points
    return float(np.mean(np.abs(f(t))))


# ----------------------------------------------------------------------
# basis evaluations
# ----------------------------------------------------------------------

def test_trig_basis_values():
    assert sg.trig_basis_eval(1, 0.37) == 1.0
    assert sg.trig_basis_eval(2, 0.0) == pytest.approx(SQRT2, abs=1e-12)
    assert sg.trig_basis_eval(3, 0.25) == pytest.approx(SQRT2, abs=1e-12)
    with pytest.raises(ValueError):
        sg.trig_basis_eval(0, 0.1)


@pytest.mark.parametrize("p", [4, 8, 16, 101])
def test_discrete_orthonormality(p):
    t = np.arange(1, p + 1) / p
    M = np.stack([sg.trig_basis_eval(j, t) for j in range(1, p)])
    gram = M @ M.T / p
    assert np.abs(gram - np.eye(p - 1)).max() < 1e-10


@pytest.mark.parametrize("p", [4, 9, 16])
def test_psi_products_integrate_to_discrete_inner(p):
    # Psi_{j,p} is constant on each cell, so the exact integral of
    # Psi_j Psi_i over one period is the cell-width-weighted product sum.
    t = np.arange(1, p + 1) / p
    for j in (1, 2, min(3, p - 1)):
        for i in (1, 2, min(3, p - 1)):
            vals_j = sg.trig_basis_eval(j, t)
            vals_i = sg.trig_basis_eval(i, t)
            integral = float(np.sum(vals_j * vals_i) / p)
            assert integral == pytest.approx(sg.discrete_inner(vals_j, vals_i), abs=1e-14)


def test_fold_period_half_open():
    assert sg.fold_period(0.0) == 1.0
    assert sg.fold_period(1.0) == 1.0
    assert sg.fold_period(2.5) == 0.5
    assert sg.fold_period(-0.25) == pytest.approx(0.75)


def test_fold_period_is_mod_bit_for_bit():
    # t - floor(t) is the exact fractional part rounded once, as np.mod's
    # remainder is: both give +0.0 at zeros, integers and huge values
    def by_mod(t):
        u = np.mod(t, 1.0)
        return np.where(u == 0.0, 1.0, u)

    integers = np.concatenate([np.arange(-64.0, 65.0), [2.0**52, 2.0**53, 2.0**60, 1e300]])
    integers = np.concatenate([integers, -integers])
    tiny = np.array([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-17])
    rng = np.random.default_rng(5)
    t = np.concatenate([
        [0.0, -0.0], integers, np.nextafter(integers, np.inf), np.nextafter(integers, -np.inf),
        tiny, -tiny, rng.uniform(-3.0, 3.0, 10000), rng.uniform(-1e9, 1e9, 10000),
        np.ldexp(rng.uniform(-1.0, 1.0, 10000), rng.integers(-1074, 1024, 10000)),
    ])
    assert sg.fold_period(t).tobytes() == by_mod(t).tobytes()
    # scalars, ints and lists are accepted as before, a scalar as a 0-d array
    for value in (0.0, -0.0, 3, -7, 2.5, [0.25, 1.0, -1.5], (2,)):
        folded = sg.fold_period(value)
        assert isinstance(folded, np.ndarray) and folded.tobytes() == by_mod(value).astype(float).tobytes()
    # the tabulated signal folds its node positions the same way
    table = sg.SignalSpec.tabulated([0.0, 1.0, 0.5])
    u = sg.fold_period(t[np.abs(t) < 1e6])
    assert table(t[np.abs(t) < 1e6]).tobytes() == np.interp(np.mod(u, 1.0) * 3, np.arange(4.0),
                                                          [0.0, 1.0, 0.5, 0.0]).tobytes()


@given(st.floats(-5, 5).filter(lambda t: abs(t) > 1e-9), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_trig_basis_periodic(t, j):
    assert sg.trig_basis_eval(j, t) == pytest.approx(sg.trig_basis_eval(j, t + 1.0), abs=1e-9)


@given(st.floats(-3, 3), st.sampled_from(["benchmark", "trig", "tabulated"]))
@settings(max_examples=60, deadline=None)
def test_signal_periodicity(t, kind):
    if kind == "benchmark":
        S = sg.SignalSpec.benchmark()
    elif kind == "trig":
        S = sg.SignalSpec.trig_polynomial([0.3, -1.0, 0.5])
    else:
        S = sg.SignalSpec.tabulated([0.0, 1.0, 0.5, -0.25])
    assert S(t) == pytest.approx(S(t + 1.0), abs=1e-9)


def test_benchmark_shape():
    S = sg.SignalSpec.benchmark()
    assert S(0.5) == 0.0
    assert S(0.25) == 0.25
    assert S(0.75) == 0.25
    assert S(0.1) == 0.25
    assert S(0.9) == 0.25
    assert S(0.6) == pytest.approx(0.1)


def test_trig_polynomial_matches_manual_sum():
    coeffs = [0.5, -0.3, 0.0, 0.25]
    S = sg.SignalSpec.trig_polynomial(coeffs)
    t = np.linspace(0.01, 0.99, 17)
    manual = sum(c * sg.trig_basis_eval(j, t) for j, c in enumerate(coeffs, start=1))
    assert np.allclose(S(t), manual, atol=1e-14)


# ----------------------------------------------------------------------
# discrete coefficients
# ----------------------------------------------------------------------

def test_constant_signal_coefficients():
    theta = discrete_fourier_coeffs(lambda t: np.full_like(np.asarray(t, float), 2.5), 32)
    assert theta[0] == pytest.approx(2.5, abs=1e-12)
    assert np.abs(theta[1:31]).max() < 1e-12


def test_pure_basis_element_coefficients():
    theta = discrete_fourier_coeffs(lambda t: sg.trig_basis_eval(5, t), 64)
    expected = np.zeros(64)
    expected[4] = 1.0
    assert np.abs(theta[:63] - expected[:63]).max() < 1e-12


def test_fft_route_matches_direct_sums():
    rng = np.random.default_rng(7)
    for p in (5, 8, 13):
        v = rng.normal(size=p)
        t = np.arange(1, p + 1) / p
        direct = np.array([np.sum(v * sg.trig_basis_eval(j, t)) / p for j in range(1, p + 1)])
        assert np.allclose(sg.grid_coefficients(v), direct, atol=1e-13)


@pytest.mark.parametrize("p", [1000, 1001, 10001])
def test_block_rows_keep_the_bits_of_one_transform(p):
    # the risk engine transforms a block of replications at once; each row
    # must take the bits its own 1-D transform gives, or every risk digit moves
    rng = np.random.default_rng(p)
    block = rng.normal(size=(9, p))
    theta = sg.grid_coefficients(block)
    assert theta.shape == (9, p)
    for row, v in zip(theta, block):
        one = sg.grid_coefficients(v)
        assert one.shape == (p,) and np.array_equal(row, one)


@pytest.mark.parametrize("p", [100, 101])
def test_a_shorter_count_keeps_the_bits_of_the_first_coefficients(p):
    # the risk engine transforms only the min(n, p - 1) coefficients it reads
    block = np.random.default_rng(p).normal(size=(3, p))
    full = sg.grid_coefficients(block)
    for count in (1, 2, 3, 20, 21, p - 1, p):
        assert np.array_equal(sg.grid_coefficients(block, count), full[:, :count])
        assert np.array_equal(sg.grid_coefficients(block[0], count), full[0, :count])
    for count in (0, p + 1):
        with pytest.raises(ValueError, match="count"):
            sg.grid_coefficients(block, count)


@pytest.mark.parametrize("p", [5, 8, 16, 101])
def test_coefficient_round_trip(p):
    rng = np.random.default_rng(p)
    v = rng.normal(size=p)
    assert np.allclose(sg.coefficients_to_grid(sg.grid_coefficients(v)), v, atol=1e-12)


def test_benchmark_discrete_coeffs_approach_exact():
    S = sg.SignalSpec.benchmark()
    theta = discrete_fourier_coeffs(S, 10001)
    assert theta[0] == pytest.approx(BENCHMARK_THETA1, abs=1e-7)
    for k, val in BENCHMARK_COS.items():
        assert theta[2 * k - 1] == pytest.approx(val, abs=1e-7), f"cos index {2 * k}"
    # sine coefficients vanish by symmetry
    sines = theta[2:200:2]
    assert np.abs(sines).max() < 1e-7
    # theta_1 converges at rate ~ p^-2
    err_small = abs(discrete_fourier_coeffs(S, 101)[0] - BENCHMARK_THETA1)
    err_big = abs(theta[0] - BENCHMARK_THETA1)
    assert err_big < err_small / 100


@pytest.mark.parametrize("p", [9, 101, 1001])
def test_parseval_odd_p(p):
    S = sg.SignalSpec.benchmark()
    theta = discrete_fourier_coeffs(S, p)
    norm_sq = sg.discrete_norm_sq(sg.grid_values(S, p))
    assert np.sum(theta**2) == pytest.approx(norm_sq, abs=1e-13)


def test_parseval_even_p_with_halved_top_term():
    # for even p the index-p column is the alternating Nyquist vector with
    # discrete norm 2, so its contribution to the norm identity is halved
    p = 16
    rng = np.random.default_rng(3)
    v = rng.normal(size=p)
    theta = sg.grid_coefficients(v)
    total = np.sum(theta[: p - 1] ** 2) + theta[p - 1] ** 2 / 2.0
    assert total == pytest.approx(sg.discrete_norm_sq(v), abs=1e-12)


def test_benchmark_norm_value():
    S = sg.SignalSpec.benchmark()
    assert sg.discrete_norm_sq(sg.grid_values(S, 100001)) == pytest.approx(
        BENCHMARK_NORM_SQ, abs=1e-6
    )


def test_discrete_inner_mismatch_rejected():
    with pytest.raises(ValueError):
        sg.discrete_inner(np.zeros(4), np.zeros(5))


# ----------------------------------------------------------------------
# correction coefficients
# ----------------------------------------------------------------------

def test_correction_zero_for_constants():
    h = correction_coeffs(lambda t: np.full_like(np.asarray(t, float), 0.7), 24)
    assert np.abs(h).max() < 1e-14


@pytest.mark.parametrize("p", [8, 16, 100])
def test_sawtooth_first_correction(p):
    # S(t) = t over a single period: every cell contributes the exact
    # integral of (t - t_l), giving h_1 = -1/(2p).
    h = correction_coeffs(lambda t: np.asarray(t, float), p)
    assert h[0] == pytest.approx(-1.0 / (2.0 * p), abs=1e-12)


def test_correction_sum_bound_for_smooth_signals():
    # sum_j h_{j,p}^2 <= 3 r / p^2 with r the second-order Sobolev radius
    rng = np.random.default_rng(11)
    for p in (64, 101):
        for _ in range(5):
            S, coeffs = random_trig_poly(rng, max_index=9)
            d1 = derivative_coeffs(coeffs)
            d2 = derivative_coeffs(d1)
            r = float(coeffs @ coeffs + d1 @ d1 + d2 @ d2)
            h = correction_coeffs(S, p)
            assert np.sum(h**2) <= 3.0 * r / p**2


def test_refined_coefficient_bounds():
    # |theta_bar_1| <= ||S||_1 and max_j j |theta_bar_j| <= 2 sqrt(2) ||S'||_1
    rng = np.random.default_rng(23)
    for _ in range(5):
        S, coeffs = random_trig_poly(rng, max_index=7)
        p = 101
        theta_bar = discrete_fourier_coeffs(S, p) + correction_coeffs(S, p)
        d1 = derivative_coeffs(coeffs)
        Sdot = sg.SignalSpec.trig_polynomial(d1)
        l1 = l1_norm_dense(S)
        l1_dot = l1_norm_dense(Sdot)
        assert abs(theta_bar[0]) <= l1 + 1e-9
        j = np.arange(2, p + 1)
        assert np.max(j * np.abs(theta_bar[1:])) <= 2.0 * SQRT2 * l1_dot + 1e-9


# ----------------------------------------------------------------------
# norm equivalence and tail bounds
# ----------------------------------------------------------------------

@pytest.mark.parametrize("eps_tilde", [0.1, 1.0])
def test_norm_equivalence_for_cellwise_freeze(eps_tilde):
    # ||f - g||^2 <= (1 + e) ||f - g||_p^2 + (1 + 1/e) ||f'||^2 / p^2
    # with g the cellwise-constant freeze of f at right endpoints.
    rng = np.random.default_rng(5)
    for p in (8, 16):
        for _ in range(4):
            f, coeffs = random_trig_poly(rng, max_index=7)
            d1 = derivative_coeffs(coeffs)
            fdot_sq = float(d1 @ d1)
            fine = 512
            t_mid = (np.arange(p * fine) + 0.5) / (p * fine)
            cells = np.ceil(t_mid * p) / p
            delta = f(t_mid) - f(cells)
            cont_sq = float(np.mean(delta**2))
            # the freeze agrees with f at every grid point, so ||delta||_p^2 = 0
            disc_sq = 0.0
            bound = (1 + eps_tilde) * disc_sq + (1 + 1 / eps_tilde) * fdot_sq / p**2
            assert cont_sq <= bound + 1e-12


@pytest.mark.parametrize("eps_tilde", [0.1, 1.0])
@pytest.mark.parametrize("start", [2, 5, 20])
def test_benchmark_tail_bound(eps_tilde, start):
    # sum_{j=N}^p theta_{j,p}^2 <= (1+e) sum_{j>=N} theta_j^2 + (1+1/e) r / p^2
    # with exact continuous coefficients for the benchmark; r is the
    # first-order Sobolev radius ||S||^2 + ||S'||^2 = 1/24 + 1/2.
    p = 1001
    S = sg.SignalSpec.benchmark()
    theta_disc = discrete_fourier_coeffs(S, p)
    head_exact = sum(benchmark_theta_exact(j) ** 2 for j in range(1, start))
    tail_exact = BENCHMARK_NORM_SQ - head_exact
    r = BENCHMARK_NORM_SQ + 0.5
    lhs = float(np.sum(theta_disc[start - 1:] ** 2))
    rhs = (1 + eps_tilde) * tail_exact + (1 + 1 / eps_tilde) * r / p**2
    assert lhs <= rhs
