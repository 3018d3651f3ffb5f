"""Reference coefficients that only the tests read.

The discrete Fourier coefficients theta_{j,p} of a signal are the truth
the estimates are compared against.  The correction coefficients
h_{j,p} measure how far the cell-integral drift increments the sampler
draws sit from the grid values of the signal; noiseless coefficient
estimates equal theta + h exactly.  `estimate_coefficients` reads all
p - 1 estimates off a whole path, the full-path reference the risk
engine's folded sampler is tested against.
"""

import numpy as np

from driftsel.estimator import CoefficientEstimates
from driftsel.signal import cell_integrals, grid_coefficients, grid_values


def increments(obs):
    """The n*p increments of an observation path."""
    return np.diff(obs.y)


def estimate_coefficients(obs) -> CoefficientEstimates:
    """Coefficient estimates of one path: all p - 1 estimable
    coefficients, each the average of its basis function against the
    n*p increments.  Periodicity reduces that to the increments' per-cell
    sums over the periods, one length-p transform whatever n."""
    if obs.p < 3:
        raise ValueError("need at least 3 observations per period")
    theta = grid_coefficients(increments(obs).reshape(obs.n, obs.p).sum(axis=0), obs.p - 1)
    theta *= obs.p / obs.n
    return CoefficientEstimates(n=obs.n, p=obs.p, theta=theta)


def discrete_fourier_coeffs(S, p: int):
    """Discrete Fourier coefficients theta_{j,p} = (S, phi_j)_p, j = 1..p."""
    if p < 3:
        raise ValueError("need at least 3 points per period")
    return grid_coefficients(grid_values(S, p))


def correction_coeffs(S, p: int):
    """Correction coefficients h_{j,p}, j = 1..p, from per-cell quadrature.

    h_{j,p} = sum_l integral over cell l of phi_j(t_l) (S(t) - S(t_l)) dt,
    which is the discrete coefficient vector of the grid function
    d(t_l) = p * (cell integral) - S(t_l); the refined coefficients are
    theta_bar = theta + h.
    """
    if p < 3:
        raise ValueError("need at least 3 points per period")
    d = p * cell_integrals(S, p) - grid_values(S, p)
    return grid_coefficients(d)
