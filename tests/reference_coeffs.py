"""Reference coefficients that only the tests read.

The discrete Fourier coefficients theta_{j,p} of a signal are the truth
the estimates are compared against.  The correction coefficients
h_{j,p} measure how far the cell-integral drift increments the sampler
draws sit from the grid values of the signal; noiseless coefficient
estimates equal theta + h exactly.
"""

from driftsel.signal import cell_integrals, grid_coefficients, grid_values


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
