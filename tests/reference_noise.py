"""The dense noise sampler that only the tests read.

Production builds every noise quantity from a stream's few (cell, value)
terms (`driftsel.noise._terms`).  Kept here verbatim are the dense core
it replaced, which fills every cell with drift + rho1 dL + rho2 dz,
adding the per-cell sum of the marks once scaled by rho2, and the two
samplers built on it, so the tests can check that the terms' sums give
the same numbers: bit for bit where rho2 scales exactly and no cell
holds a jump, to rounding otherwise.
"""

import math

import numpy as np

from driftsel.noise import (
    TAG_MARKS,
    NoiseSpec,
    ObservationPath,
    _epoch_cells,
    _jump_sums,
    _period_widths,
    _rekeyed,
    _renewal_epochs,
    _sample_marks,
    brownian_normals,
)
from driftsel.signal import cell_integrals


def _epoch_marks(spec: NoiseSpec, n: int, keys):
    """The renewal epochs in (0, n] of each stream of `keys` and their
    marks (substream TAG_MARKS), both concatenated in stream order, and
    each stream's epoch count."""
    epochs, per_row = _renewal_epochs(spec.interarrival, float(n), keys)
    marks = [_sample_marks(spec.marks, _rekeyed(TAG_MARKS, row), count) for row, count in zip(keys, per_row)]
    return epochs, np.concatenate(marks), per_row


def _noise_on_cells(drift: np.ndarray, widths: np.ndarray, dW, spec: NoiseSpec, n: int, p: int,
                    keys) -> np.ndarray:
    """drift + rho1 dL + rho2 dz over cells of the given widths covering n
    periods observed at p points per period, one row per stream of `keys`.

    z jumps by an i.i.d. standardized mark at every renewal epoch in
    [0, n]; each epoch's cell on the n*p-cell grid is taken modulo the
    cell count, so n*p cells give the path's increments and p cells its
    period sums.  L = rho_check * W + sqrt(1 - rho_check^2) * (symmetric,
    uncompensated jumps), the jumps drawn per cell.  The caller passes
    the Brownian increments W over the cells as the block dW, which is
    overwritten, or None to leave the Brownian part out.

    A stream makes only its own draws, row by row, each component on its
    one re-keyed generator; the renewal gaps' cumulative sums, the cell
    rule, the sums of marks per cell and the arithmetic each run once
    over the block, elementwise or within a row, so a row has the same
    bits as a block of one."""
    rows, cells = len(keys), widths.size
    epochs, marks, per_row = _epoch_marks(spec, n, keys)
    dL = dW
    if spec.rho_check < 1.0:
        dJ = np.empty((rows, cells))
        for i, row in enumerate(keys):
            _, dJ[i] = _jump_sums(spec, widths, row)
        dJ *= math.sqrt(1.0 - spec.rho_check**2)
        if dL is None:
            dL = dJ
        else:
            dL *= spec.rho_check
            dL += dJ
    # each epoch's cell, offset by its row's cells: one count fills the block
    offsets = np.repeat(np.arange(rows) * cells, per_row)
    dz = spec.rho2 * np.bincount(offsets + _epoch_cells(epochs, p) % cells,
                                 weights=marks, minlength=rows * cells).reshape(rows, cells)
    # (drift + rho1 dL) + rho2 dz, in place
    if dL is None:
        dz += drift
        return dz
    dL *= spec.rho1
    dL += drift
    dL += dz
    return dL


def sample_observations(S, spec: NoiseSpec, n: int, p: int, keys: list) -> ObservationPath:
    """One observation path over n periods at p samples per period, of
    the stream whose row of `stream_keys` is `keys`.

    Each increment is the exact-quadrature drift integral over its cell
    plus rho1 dL + rho2 dz, the Brownian part one normal per cell (n*p
    of them) scaled by the cell's root width.
    """
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 periods and p >= 3 samples per period")
    widths = np.diff(np.arange(n * p + 1) / p)
    dW = brownian_normals([keys], n * p)
    dW *= np.sqrt(widths)
    [dy] = _noise_on_cells(np.tile(cell_integrals(S, p), n), widths, dW, spec, n, p, [keys])
    return ObservationPath(n=n, p=p, y=np.concatenate(([0.0], np.cumsum(dy))))


def sample_period_sums(drift_sums: np.ndarray, spec: NoiseSpec, n: int, keys) -> np.ndarray:
    """The n*p increments of one observation path per stream of `keys`,
    without their Brownian part, folded onto one period: an (R x p) block
    for R streams, whose rows have the same bits as R blocks of one.

    Entry l of a row is the sum over the n periods of the increment over
    the l-th in-period cell, which is all the coefficient estimates read
    of a path.  drift_sums is the drift part, n * cell_integrals(S, p),
    which a caller sampling many replications of one signal computes
    once; its length is p. The row of the stream whose keys are `row` has
    the law of np.diff(sample_observations(S, spec, n, p, row).y).reshape(n, p).sum(0)
    less rho1 * rho_check times the path's Brownian sums, in O(p) memory
    instead of O(n p):

    - the semi-Markov part uses the same epochs and marks as the full path
      (same substreams and cell rule), each epoch's cell taken modulo p,
      so this part matches the full path draw for draw;
    - the jump counts are drawn directly on p cells of width n/p,
      Poisson(intensity * n/p).

    The Brownian sums left out are i.i.d. N(0, n/p) and independent of
    the rest; the risk engine draws that part in coefficient space
    instead (`brownian_normals`).
    """
    p = drift_sums.size
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 periods and p >= 3 samples per period")
    return _noise_on_cells(drift_sums, _period_widths(n, p), None, spec, n, p, keys)
