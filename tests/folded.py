"""Folded full-path sums that only the tests read.

`sample_period_sums` leaves the Brownian part out, since the risk engine
draws that part in coefficient space.  The tests that compare the folded
sampler with whole paths in law add it back here.
"""

import math

from driftsel.noise import brownian_normals, sample_period_sums


def folded_path_sums(drift_sums, spec, n, keys):
    """`sample_period_sums` plus rho1 * rho_check times i.i.d. N(0, n/p)
    Brownian sums, the stream's Brownian normals scaled by sqrt(n/p):
    each row has the law of a whole path's increments folded onto one
    period."""
    p = drift_sums.size
    sums = sample_period_sums(drift_sums, spec, n, keys)
    sums += spec.rho1 * spec.rho_check * math.sqrt(n / p) * brownian_normals(keys, p)
    return sums
