"""Path samplers for the observation model: dy = S dt + rho1 dL + rho2 dz.

The noise has two independent parts. L is a Levy component: standard
Brownian motion mixed with a compensated compound Poisson jump part whose
jump measure is normalized so that the second-moment charge intensity *
E[J^2] equals 1. z is a semi-Markov component: a renewal process with a
general inter-arrival law, carrying i.i.d. standardized marks at its epochs.

z jumps only at renewal epochs and the jump part only in the cells whose
Poisson count is nonzero, so one sampler, `_terms`, draws a block of
streams' noise without its Brownian part as a few (cell, value) terms:
one per epoch, one per cell holding a jump.  Every noise quantity is
built from them.  The risk engine's projection route reads them as they
are (`sample_period_terms`); the period sums (`sample_period_sums`) and
a whole path (`sample_observations`) are their per-cell sums, one
bincount, plus the drift part and, for a path, the Brownian part.

The Brownian part comes from one stream of standard normals per
replication, `brownian_normals`, read in one of two ways.  A whole path
scales one normal per cell by the cell's root width.  The period sums
leave the part out: the risk engine reads the first min(n, p - 1)
normals as that part of its coefficient estimates directly, so it draws
only those.

Randomness is fully deterministic given (base_seed, stream): each
component draws from its own counter-based substream, so the z-path and the
L-path of one replication never share random state, and any component can be
re-generated bitwise in isolation.  Component t of replication r is Philox
keyed by SeedSequence(base_seed, spawn_key=(r, t)).generate_state(2,
np.uint64), so plain numpy reproduces any stream:

    Generator(Philox(SeedSequence(base_seed, spawn_key=(r, t))))

A stream is named by its four keys alone, and every sampler takes them
as rows, one per stream, as `stream_keys(base_seed, start, stop)`
returns them for streams start..stop-1.  It derives them with numpy's
documented SeedSequence hash (pool size 4): the part that depends on the
seed alone once per seed, its pool read from SeedSequence(base_seed),
then every (stream, tag) pair of a run of streams in one vectorized
pass, which is much cheaper than one SeedSequence per substream.  Nor is
a generator built per substream: every draw is made on one generator per
component, built once per process and re-keyed for each stream
(`_rekeyed`).  Philox is counter-based, so a Philox set to a key at
counter 0 with an empty buffer draws the bits of one freshly built with
that key.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .renewal import InterarrivalLaw
from .signal import cell_integrals

# substream tags: one per independent noise ingredient
TAG_RENEWAL = 0
TAG_MARKS = 1
TAG_BROWNIAN = 2
TAG_JUMPS = 3

MARK_LAWS = ("normal", "rademacher", "uniform")
JUMP_LAWS = ("gaussian", "two_point")


# numpy's SeedSequence hash on 32-bit words, pool size 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4
_TAGS = 4


# both helpers take uint32 arrays, whose arithmetic wraps
def _hash(value, xor, mul):
    value = (value ^ xor) * mul & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _steps(const: int, mult: int):
    """The (xor, multiply) constants of _POOL successive hash steps from
    `const`, as uint32 arrays, and the constant after them."""
    xor, mul = [], []
    for _ in range(_POOL):
        xor.append(const)
        const = const * mult & _MASK32
        mul.append(const)
    return np.array(xor, dtype=np.uint32), np.array(mul, dtype=np.uint32), const


@lru_cache(maxsize=1)
def _seed_part(base_seed: int):
    """Everything of SeedSequence(base_seed, spawn_key=(r, t)) that does
    not depend on r: the pool after the seed's words are mixed in, the
    hash constants the stream word r meets, the hashed tag words indexed
    [t, pool word], and the constants generate_state hashes the pool with."""
    seed = operator.index(base_seed)
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    # the spawn key is mixed in after the seed's words, so the pool is
    # SeedSequence(seed)'s; mixing the seed took 4 + 12 hash steps (one per
    # pool word, one per ordered pair of pool words), plus 4 for each seed
    # word beyond the pool size
    words = max(1, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - _POOL), 1 << 32) & _MASK32
    stream_xor, stream_mul, const = _steps(const, _MULT_A)
    tag_xor, tag_mul, _ = _steps(const, _MULT_A)
    tags = _hash(np.arange(_TAGS, dtype=np.uint32)[:, None], tag_xor, tag_mul)
    state_xor, state_mul, _ = _steps(_INIT_B, _MULT_B)
    return SeedSequence(seed).pool, stream_xor, stream_mul, tags, state_xor, state_mul


def stream_keys(base_seed: int, start: int, stop: int) -> list:
    """Philox keys of every substream of streams start..stop-1 of
    base_seed: one row per stream, whose entry t is the key of substream
    t, SeedSequence(base_seed, spawn_key=(stream, t)).generate_state(2,
    np.uint64), as a [k0, k1] pair of Python ints, which Philox's state
    setter reads faster than array items.  A row names its stream: every
    sampler takes rows of these.

    A stream index of 2**32 or more is a two-word spawn key entry, which
    this one-word derivation does not cover, so it is an error."""
    pool, stream_xor, stream_mul, tags, state_xor, state_mul = _seed_part(base_seed)
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError(f"stream indices must lie in [0, 2**32), got {start}..{stop - 1}")
    r = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)[:, None]
    pools = _mix(pool, _hash(r, stream_xor, stream_mul))
    words = _hash(_mix(pools[:, None, :], tags), state_xor, state_mul).astype(np.uint64)
    return (words[..., 0::2] | words[..., 1::2] << 32).tolist()


# Philox(key=k) would still build a SeedSequence from 128 bits of OS entropy
class _PhiloxKey(ISeedSequence):
    """A seed sequence that hands Philox one precomputed key and nothing else."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a substream key serves only Philox's two-word uint64 key")
        return self.key


@lru_cache(maxsize=None)
def _component(tag: int):
    """The one generator of substream `tag` that the block sampler
    re-keys for every stream, built once per process, and the state of
    its fresh Philox: counter 0, an empty buffer and no saved 32-bit
    half.  The key it is built with is never drawn from."""
    gen = Generator(Philox(_PhiloxKey(np.zeros(2, dtype=np.uint64))))
    state = gen.bit_generator.state
    # as Python ints, like the keys
    counter, buffer = state["state"]["counter"].tolist(), state["buffer"].tolist()
    return gen, {**state, "state": {"counter": counter, "key": None}, "buffer": buffer}


def _rekeyed(tag: int, row: list) -> Generator:
    """Substream `tag` of the stream whose keys are `row` on the
    component's one generator, with the bits of a Philox freshly built
    with the substream's key whatever the last stream left in it.  Every
    draw goes through here.  The generator is shared, so a process runs
    one sampler at a time (the risk engine's workers are processes)."""
    gen, fresh = _component(tag)
    fresh["state"]["key"] = row[tag]
    gen.bit_generator.state = fresh
    return gen


@dataclass(frozen=True)
class NoiseSpec:
    """Amplitudes and laws of the two noise components.

    rho1 scales the Levy part, rho2 the semi-Markov part; rho_check in
    [0, 1] is the Brownian weight inside the Levy part.  The rest of the
    Levy part is a compound Poisson jump part of intensity
    jump_intensity, 0 meaning none, so rho_check < 1 requires a positive
    intensity.  Jumps are drawn from jump_law ("gaussian" or symmetric
    "two_point") and scaled by 1/sqrt(jump_intensity), so that intensity
    * E[J^2] = 1 whatever the intensity; both laws are symmetric, so the
    compensator term intensity * E[J] * dt vanishes.
    """

    rho1: float
    rho2: float
    rho_check: float = 1.0
    interarrival: InterarrivalLaw = InterarrivalLaw.chi_squared(3.0)
    marks: str = "normal"
    jump_intensity: float = 0.0
    jump_law: str = "gaussian"

    def __post_init__(self):
        if not (0.0 <= self.rho1 < math.inf and 0.0 <= self.rho2 < math.inf):
            raise ValueError("noise amplitudes must be finite and nonnegative")
        if not 0.0 <= self.rho_check <= 1.0:
            raise ValueError("the Brownian weight must lie in [0, 1]")
        if not 0.0 <= self.jump_intensity < math.inf:
            raise ValueError(f"jump_intensity must be finite and nonnegative, got {self.jump_intensity!r}")
        if self.rho_check < 1.0 and self.jump_intensity == 0.0:
            raise ValueError("a Brownian weight below 1 requires a jump part (jump_intensity > 0)")
        if self.marks not in MARK_LAWS:
            raise ValueError(f"mark law must be one of {MARK_LAWS}")
        if self.jump_law not in JUMP_LAWS:
            # checked with or without a jump part, so the manifest never names an unknown law
            raise ValueError(f"jump_law must be one of {JUMP_LAWS}, got {self.jump_law!r}")


@dataclass(frozen=True)
class ObservationPath:
    """Sampled observations y at t_j = j/p for j = 0..n*p."""

    n: int
    p: int
    y: np.ndarray

    def __post_init__(self):
        if self.y.size != self.n * self.p + 1:
            raise ValueError(f"path length {self.y.size} != n*p+1 = {self.n * self.p + 1}")
        if self.y[0] != 0.0:
            raise ValueError("paths start at 0")


def _sample_marks(law: str, gen: Generator, size: int) -> np.ndarray:
    # standardized: mean 0, variance 1, finite fourth moment
    if law == "normal":
        return gen.standard_normal(size)
    if law == "rademacher":
        return gen.integers(0, 2, size) * 2.0 - 1.0
    if law == "uniform":
        return gen.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    raise ValueError(f"unknown mark law {law!r}")


def renewal_chunk(law: InterarrivalLaw, horizon: float) -> float:
    """How many gaps `_renewal_epochs` draws at a time for the epochs up
    to horizon > 0: the expected epoch count, a 6-sd margin and 16,
    rounded down, as a float that is inf when the count overflows."""
    mean = law.mean()
    expected = horizon / mean if mean > 0.0 else math.inf
    chunk = expected + 6.0 * math.sqrt(expected + 1.0) + 16.0
    return float(math.floor(chunk)) if chunk < math.inf else chunk


def _renewal_epochs(law: InterarrivalLaw, horizon: float, keys):
    """Renewal epochs T_1 < T_2 < ... <= horizon, for horizon > 0, of
    each stream of `keys`, concatenated in stream order, and each
    stream's count.

    A stream's epochs are the running sums of its gaps, drawn
    renewal_chunk(law, horizon) at a time from its substream TAG_RENEWAL
    until the last sum passes the horizon.  Every stream draws its first
    chunk into its row of one block, whose cumulative sums and selection
    run once.  A row whose last sum does not pass the horizon, rare with
    the chunk's 6-sd margin, is drawn again from its start, a chunk at a
    time; a cumulative sum runs in order, so its first chunk's sums are
    the block row's."""
    chunk = int(renewal_chunk(law, horizon))
    times = np.array([law.sample(_rekeyed(TAG_RENEWAL, row), chunk) for row in keys])
    times.cumsum(axis=1, out=times)
    inside = times <= horizon
    short = np.flatnonzero(inside[:, -1])
    if not short.size:
        return times[inside], inside.sum(axis=1)
    rows = [row[keep] for row, keep in zip(times, inside)]
    for i in short.tolist():
        gen = _rekeyed(TAG_RENEWAL, keys[i])
        parts = [law.sample(gen, chunk)]
        while (row := np.cumsum(np.concatenate(parts)))[-1] <= horizon:
            parts.append(law.sample(gen, chunk))
        rows[i] = row[row <= horizon]
    return np.concatenate(rows), [row.size for row in rows]


def _epoch_cells(epochs: np.ndarray, p: int) -> np.ndarray:
    """Index m of the cell (s_m, s_{m+1}] of the grid s = arange(n*p+1)/p
    that holds each epoch in (0, n].

    ceil(t * p) alone misplaces epochs within an ulp of a cell edge, so
    the right edge it gives is corrected by comparing the grid values
    themselves, exactly as a search of that grid would."""
    right = np.ceil(epochs * p).astype(np.intp)
    right += right / p < epochs
    right -= (right - 1) / p >= epochs
    return right - 1


def brownian_normals(keys, count: int) -> np.ndarray:
    """The first `count` standard normals of substream TAG_BROWNIAN of
    each stream of `keys`, one row per stream; a shorter count draws the
    first entries of a longer one.

    A full path scales one by each cell's root width.  The risk engine
    takes one per coefficient instead: by the discrete orthonormality of
    phi_1..phi_{p-1} (`signal`), the Brownian part of the estimates
    theta_1..theta_{p-1} of n periods is i.i.d. N(0, rho1^2 rho_check^2
    / n), rho1 * rho_check / sqrt(n) times these normals, whatever the
    path's other parts."""
    normals = np.empty((len(keys), count))
    for out, row in zip(normals, keys):
        _rekeyed(TAG_BROWNIAN, row).standard_normal(out=out)
    return normals


def _jump_sums(spec: NoiseSpec, widths: np.ndarray, row: list):
    """Substream TAG_JUMPS of the stream whose keys are `row`, on cells
    of the given widths: each cell's Poisson(jump_intensity * width) jump
    count, and the sum of its jumps, symmetric and uncompensated, scaled
    by 1/sqrt(jump_intensity)."""
    gen = _rekeyed(TAG_JUMPS, row)
    counts = gen.poisson(spec.jump_intensity * widths)
    total = int(counts.sum())
    scale = 1.0 / math.sqrt(spec.jump_intensity)
    if spec.jump_law == "gaussian":
        jumps = gen.standard_normal(total) * scale
    else:
        jumps = (gen.integers(0, 2, total) * 2.0 - 1.0) * scale
    cells = widths.size
    return counts, np.bincount(np.repeat(np.arange(cells), counts), weights=jumps, minlength=cells)


def _terms(spec: NoiseSpec, n: int, p: int, widths: np.ndarray, keys):
    """rho1 dL + rho2 dz of each stream of `keys` over n periods observed
    at p points per period, without the Brownian part, as a few terms on
    cells of the given widths: the cells and values of all terms, grouped
    by stream in stream order, and each stream's term count.

    A stream's terms are rho2 * mark at the cell of each renewal epoch in
    (0, n] (marks from substream TAG_MARKS), that cell on the n*p-cell
    grid taken modulo the cell count, then rho1 * sqrt(1 - rho_check^2)
    * the jump sum of each cell whose jump count is nonzero.  So n*p
    cells give a path's terms and p cells its period sums'.  A stream
    makes only its own draws, each component on its one re-keyed
    generator; the renewal gaps' cumulative sums and the cell rule run
    once over the block, so a row has the terms of a block of one."""
    epochs, per_row = _renewal_epochs(spec.interarrival, float(n), keys)
    marks = [_sample_marks(spec.marks, _rekeyed(TAG_MARKS, row), count) for row, count in zip(keys, per_row)]
    cells = _epoch_cells(epochs, p) % widths.size
    values, counts = spec.rho2 * np.concatenate(marks), np.asarray(per_row)
    if spec.rho_check == 1.0:
        return cells, values, counts
    hits = []
    for row in keys:
        jumps, sums = _jump_sums(spec, widths, row)
        hit = np.flatnonzero(jumps > 0)
        hits.append((hit, sums[hit] * math.sqrt(1.0 - spec.rho_check**2) * spec.rho1))
    # each stream's epoch terms, then its jump terms
    hit_counts = np.array([hit.size for hit, _ in hits])
    order = np.argsort(np.concatenate((np.repeat(np.arange(len(keys)), counts),
                                       np.repeat(np.arange(len(keys)), hit_counts))), kind="stable")
    cells = np.concatenate((cells, *(hit for hit, _ in hits)))[order]
    values = np.concatenate((values, *(value for _, value in hits)))[order]
    return cells, values, counts + hit_counts


@lru_cache(maxsize=1)
def _period_widths(n: int, p: int) -> np.ndarray:
    """Widths of the p cells of width n/p that the period sums draw the
    jump part on, built once per (n, p) (read-only: shared)."""
    widths = np.diff(np.arange(p + 1) * (n / p))
    widths.flags.writeable = False
    return widths


def sample_observations(S, spec: NoiseSpec, n: int, p: int, keys: list) -> ObservationPath:
    """One observation path over n periods at p samples per period, of
    the stream whose row of `stream_keys` is `keys`.

    Each increment is rho1 * rho_check times the cell's Brownian
    increment, one normal per cell (n*p of them) scaled by its root
    width, plus the exact-quadrature drift integral over the cell, plus
    the sum of the stream's terms (`_terms`) on the n*p cells.
    """
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 periods and p >= 3 samples per period")
    widths = np.diff(np.arange(n * p + 1) / p)
    [dy] = brownian_normals([keys], n * p)
    dy *= np.sqrt(widths)
    dy *= spec.rho1 * spec.rho_check
    dy += np.tile(cell_integrals(S, p), n)
    cells, values, _ = _terms(spec, n, p, widths, [keys])
    dy += np.bincount(cells, weights=values, minlength=n * p)
    return ObservationPath(n=n, p=p, y=np.concatenate(([0.0], np.cumsum(dy))))


def sample_period_terms(spec: NoiseSpec, n: int, p: int, keys):
    """The noise of one observation path per stream of `keys`, without
    its Brownian part, folded onto one period, as a few terms per stream
    instead of p cells: `_terms` on p cells of width n/p.

    Its semi-Markov part is the path's draw for draw: the same epochs and
    marks (same substreams and cell rule), each epoch's cell taken modulo
    p.  Its jump counts are drawn directly on the p cells, Poisson(
    intensity * n/p), and the Brownian sums left out are i.i.d. N(0,
    n/p) and independent of the rest; the risk engine draws that part in
    coefficient space instead (`brownian_normals`)."""
    if n < 1 or p < 3:
        raise ValueError("need n >= 1 periods and p >= 3 samples per period")
    return _terms(spec, n, p, _period_widths(n, p), keys)


def sample_period_sums(drift_sums: np.ndarray, spec: NoiseSpec, n: int, keys) -> np.ndarray:
    """The n*p increments of one observation path per stream of `keys`,
    without their Brownian part, folded onto one period: an (R x p) block
    for R streams, whose rows have the same bits as R blocks of one.

    Entry l of a row is the sum over the n periods of the increment over
    the l-th in-period cell, which is all the coefficient estimates read
    of a path: the sum of the stream's terms in that cell
    (`sample_period_terms`) plus drift_sums[l].  drift_sums is the drift
    part, n * cell_integrals(S, p), which a caller sampling many
    replications of one signal computes once; its length is p.  A row
    has the law of the folded path's increments less rho1 * rho_check
    times the path's Brownian sums, in O(p) memory instead of O(n p).
    """
    p, rows = drift_sums.size, len(keys)
    cells, values, counts = sample_period_terms(spec, n, p, keys)
    # each term's cell, offset by its row's cells: one count fills the block
    offsets = np.repeat(np.arange(rows) * p, counts)
    return np.bincount(offsets + cells, weights=values, minlength=rows * p).reshape(rows, p) + drift_sums
