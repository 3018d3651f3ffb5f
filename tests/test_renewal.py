"""Tests for the renewal-density solver and noise-level scalars."""

import math

import numpy as np
import pytest
from scipy import stats

from driftsel.noise import RngStream, _renewal_epochs
from driftsel.renewal import InterarrivalLaw, grid_size, proxy_variance, solve_renewal_density
from reference_renewal import reference_generator


def test_interarrival_means():
    assert InterarrivalLaw.exponential(1.0 / 3.0).mean() == pytest.approx(3.0)
    assert InterarrivalLaw.gamma(2.0, 1.0).mean() == pytest.approx(2.0)
    assert InterarrivalLaw.chi_squared(3.0).mean() == pytest.approx(3.0)


@pytest.mark.parametrize(
    "law, reference, draw",
    [
        (InterarrivalLaw.exponential(1.0 / 3.0), stats.expon(scale=3.0),
         lambda gen, size: gen.exponential(3.0, size)),
        (InterarrivalLaw.gamma(2.0, 1.5), stats.gamma(2.0, scale=1.5),
         lambda gen, size: gen.gamma(2.0, 1.5, size)),
        (InterarrivalLaw.chi_squared(3.0), stats.chi2(3.0),
         lambda gen, size: gen.chisquare(3.0, size)),
    ],
    ids=["exponential", "gamma", "chi_squared"],
)
def test_gamma_law_matches_its_named_family(law, reference, draw):
    # the gamma formulas reproduce scipy.stats' density and cdf, and the
    # gamma sampler reproduces the named family's numpy draws bit for bit
    x = np.arange(0.0, 60.0, 1e-3)
    np.testing.assert_allclose(law.pdf(x), reference.pdf(x), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(law.cdf(x), reference.cdf(x), rtol=1e-13, atol=0.0)
    assert law.mean() == reference.mean()
    ours = law.sample(reference_generator(9, 0, 0), 1000)
    theirs = draw(reference_generator(9, 0, 0), 1000)
    assert np.array_equal(ours, theirs)


def test_law_parameters_must_be_finite_and_positive():
    for shape, scale in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 2.0), (1.0, math.nan),
                         (0.0, 1.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            InterarrivalLaw(shape, scale)


def test_solver_preconditions():
    law = InterarrivalLaw.exponential(1.0)
    for rule in (grid_size, solve_renewal_density):
        with pytest.raises(ValueError):
            rule(law, h=0.1)  # coarser than tau_bar / 50
        with pytest.raises(ValueError):
            rule(law, h=-1e-3)
        with pytest.raises(ValueError):
            rule(law, h=1e-3, horizon=5.0)  # under 20 mean spacings
    assert grid_size(law, h=0.02, horizon=20.0) == 1000
    assert grid_size(law, h=1e-3) == 40000
    assert solve_renewal_density(law, h=0.02, horizon=20.0).rho.size == 1001


def test_poisson_renewal_density_is_flat():
    sol = solve_renewal_density(InterarrivalLaw.exponential(1.0), h=1e-3, horizon=20.0)
    assert np.abs(sol.rho - 1.0).max() < 1e-6
    assert sol.upsilon_l1 < 1e-4
    assert sol.converged
    assert sol.rho_sup == pytest.approx(1.0, abs=1e-9)


def test_gamma_renewal_density_closed_form():
    # for gamma(2, 1) spacings: rho(x) = (1 - exp(-2x)) / 2, so the
    # deviation from the ergodic level 1/2 integrates to exactly 1/4
    sol = solve_renewal_density(InterarrivalLaw.gamma(2.0, 1.0), h=1e-3, horizon=40.0)
    exact = (1.0 - np.exp(-2.0 * sol.x)) / 2.0
    assert np.abs(sol.rho - exact).max() < 1e-4
    assert sol.rho[1000] == pytest.approx(0.432332, abs=1e-6)
    assert sol.upsilon_l1 == pytest.approx(0.25, abs=1e-3)
    assert sol.converged
    assert np.all(sol.rho >= 0.0)


def test_chi_squared_density_reaches_ergodic_level():
    sol = solve_renewal_density(InterarrivalLaw.chi_squared(3.0), h=1e-3, horizon=100.0)
    assert abs(sol.upsilon[-1]) < 1e-6
    assert sol.converged
    assert np.all(sol.rho >= 0.0)
    # approach is from below: sup stays at the ergodic level 1/3
    assert 0.32 < sol.rho_sup <= 1.0 / 3.0 + 1e-4
    assert np.isfinite(sol.upsilon_l1)


def test_grid_refinement_consistency():
    # halving the step should move the L1 norm by less than 4x the
    # Richardson error estimate of the coarse solve
    law = InterarrivalLaw.gamma(2.0, 1.0)
    coarse = solve_renewal_density(law, h=2e-3, horizon=40.0)
    fine = solve_renewal_density(law, h=1e-3, horizon=40.0)
    assert abs(fine.upsilon_l1 - coarse.upsilon_l1) < 4.0 * coarse.l1_error


def test_solver_matches_epoch_histogram():
    # renewal epochs binned over 1e5 sampled paths estimate the density;
    # every 0.1-wide bin must sit within 3 standard errors of the solver
    law = InterarrivalLaw.gamma(2.0, 1.0)
    n_paths, horizon, width = 100000, 5.0, 0.1
    n_bins = int(horizon / width)
    ts, _ = _renewal_epochs(law, horizon, RngStream.span(403, 0, n_paths))
    counts = np.bincount(np.minimum((ts / width).astype(int), n_bins - 1), minlength=n_bins)
    sol = solve_renewal_density(law, h=1e-3, horizon=40.0)
    per = int(round(width / sol.h))
    rho_bins = np.array([sol.rho[k * per:(k + 1) * per].mean() for k in range(n_bins)])
    est = counts / (n_paths * width)
    se = np.sqrt(np.maximum(counts, 1.0)) / (n_paths * width)
    assert np.all(np.abs(est - rho_bins) <= 3.0 * se)


def test_proxy_variance_values():
    assert proxy_variance(0.5, 0.5, 3.0) == pytest.approx(1.0 / 3.0)
    assert proxy_variance(1.0, 0.0, 7.0) == 1.0
    assert proxy_variance(0.0, 1.0, 2.0) == 0.5
    with pytest.raises(ValueError):
        proxy_variance(0.5, 0.5, 0.0)
