"""Tests for the semi-Markov / Levy noise simulators."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from driftsel.noise import (
    NoiseSpec,
    ObservationPath,
    _epoch_cells,
    _PhiloxKey,
    _rekeyed,
    _renewal_epochs,
    _sample_marks,
    renewal_chunk,
    sample_observations,
    sample_period_sums,
    stream_keys,
)
from driftsel.renewal import InterarrivalLaw, solve_renewal_density
from driftsel.signal import SignalSpec, cell_integrals, trig_basis_eval
from folded import folded_path_sums
import reference_noise
from reference_coeffs import increments
from reference_renewal import reference_generator, reference_renewal_times

CHI2_SPEC = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.chi_squared(3.0))
ZERO = SignalSpec.trig_polynomial([0.0])


class FixedSpacing:
    """Degenerate law with every gap equal to `gap`: the two methods the samplers call."""

    def __init__(self, gap=1.0):
        self.gap = gap

    def mean(self):
        return self.gap

    def sample(self, rng, size):
        return np.full(size, self.gap)


def path_increments(spec, n, p, keys, S=ZERO):
    return increments(sample_observations(S, spec, n=n, p=p, keys=keys))


def period_sums(spec, n, p, keys, S=ZERO):
    [sums] = sample_period_sums(n * cell_integrals(S, p), spec, n, [keys])
    return sums


SAMPLERS = (path_increments, period_sums)


def test_same_seed_gives_identical_paths():
    a = sample_observations(SignalSpec.benchmark(), CHI2_SPEC, n=3, p=17, keys=stream_keys(7, 3, 4)[0])
    b = sample_observations(SignalSpec.benchmark(), CHI2_SPEC, n=3, p=17, keys=stream_keys(7, 3, 4)[0])
    assert np.array_equal(a.y, b.y)


def test_stream_index_changes_path():
    a = sample_observations(ZERO, CHI2_SPEC, n=3, p=17, keys=stream_keys(7, 0, 1)[0])
    b = sample_observations(ZERO, CHI2_SPEC, n=3, p=17, keys=stream_keys(7, 1, 2)[0])
    assert not np.array_equal(a.y, b.y)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), rep=st.integers(0, 2**31))
def test_reproducibility_for_arbitrary_seeds(seed, rep):
    a = sample_observations(ZERO, CHI2_SPEC, n=2, p=7, keys=stream_keys(seed, rep, rep + 1)[0])
    b = sample_observations(ZERO, CHI2_SPEC, n=2, p=7, keys=stream_keys(seed, rep, rep + 1)[0])
    assert np.array_equal(a.y, b.y)


# the last seed has six 32-bit words, so SeedSequence mixes it unpadded
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**160 + 12345]
KEY_STREAMS = [0, 1, 49, 50, 9999, 2**32 - 1]


def reference_key(seed, stream, tag):
    return SeedSequence(seed, spawn_key=(stream, tag)).generate_state(2, np.uint64)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_substream_keys_match_seed_sequence(seed):
    # a row of four [k0, k1] pairs of Python ints per stream
    for stream in KEY_STREAMS:
        [row] = stream_keys(seed, stream, stream + 1)
        assert len(row) == 4 and all(type(k) is int for pair in row for k in pair)
        for tag in range(4):
            assert row[tag] == reference_key(seed, stream, tag).tolist()
    # one pass over a chunk gives every stream its own keys
    block = stream_keys(seed, 40, 60)
    assert len(block) == 20
    for i in range(20):
        for tag in range(4):
            assert block[i][tag] == reference_key(seed, 40 + i, tag).tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200),
       stream=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70), st.integers(-(2**40), -1)),
       tag=st.integers(0, 3))
def test_substream_keys_match_or_refuse(seed, stream, tag):
    # a stream index the one-word derivation cannot match must raise,
    # never give another stream's key
    if 0 <= stream < 2**32:
        assert stream_keys(seed, stream, stream + 1)[0][tag] == reference_key(seed, stream, tag).tolist()
        ours = _rekeyed(tag, stream_keys(seed, stream, stream + 1)[0]).integers(0, 2**63, 8)
        assert np.array_equal(ours, reference_generator(seed, stream, tag).integers(0, 2**63, 8))
    else:
        with pytest.raises(ValueError):
            stream_keys(seed, stream, stream + 1)


@pytest.mark.parametrize(
    "draw",
    [
        lambda g: g.gamma(1.5, 2.0, 64),
        lambda g: g.standard_normal(64),
        lambda g: g.poisson(3.0, 64),
        lambda g: g.integers(0, 2, 64),
        lambda g: g.uniform(-1.0, 1.0, 64),
    ],
    ids=["gamma", "standard_normal", "poisson", "integers", "uniform"],
)
def test_substreams_draw_as_plain_numpy(draw):
    for seed, start in [(0, 0), (2, 48), (2**64 + 5, 9998), (2**160 + 99, 7)]:
        for offset, row in enumerate(stream_keys(seed, start, start + 3)):
            # a run's row is the row of its stream derived alone
            assert row == stream_keys(seed, start + offset, start + offset + 1)[0]
            for tag in range(4):
                expected = draw(reference_generator(seed, start + offset, tag))
                assert np.array_equal(draw(_rekeyed(tag, row)), expected)


def test_substream_keys_refuse_what_they_cannot_match():
    for seed in (-1, -(2**40)):
        with pytest.raises(ValueError):
            stream_keys(seed, 0, 1)
    with pytest.raises(ValueError):
        stream_keys(3, 2**32 - 1, 2**32 + 1)
    key = _PhiloxKey(reference_key(3, 0, 0))
    for request in ((4,), (2,), (2, np.uint32), (4, np.uint64)):
        with pytest.raises(ValueError):
            key.generate_state(*request)


def test_semimarkov_component_ignores_levy_settings():
    # without a Levy amplitude both samplers draw the semi-Markov part
    # alone, which must not move when only the Levy settings do
    plain = NoiseSpec(rho1=0.0, rho2=0.5)
    jumpy = NoiseSpec(rho1=0.0, rho2=0.5, rho_check=0.7, jump_intensity=5.0, jump_law="two_point")
    for sample in SAMPLERS:
        z = sample(plain, 5, 8, stream_keys(11, 0, 1)[0])
        assert z.any() and np.array_equal(z, sample(jumpy, 5, 8, stream_keys(11, 0, 1)[0]))


def test_levy_component_ignores_renewal_settings():
    # with a jump part, so that the period sums, which leave the Brownian
    # part out, draw a Levy part too
    jumps = {"rho_check": 0.6, "jump_intensity": 2.0}
    other = NoiseSpec(rho1=0.5, rho2=0.0, interarrival=InterarrivalLaw.gamma(2.0, 1.0), marks="rademacher",
                      **jumps)
    for sample in SAMPLERS:
        levy = sample(NoiseSpec(rho1=0.5, rho2=0.0, **jumps), 5, 8, stream_keys(12, 0, 1)[0])
        assert levy.any() and np.array_equal(levy, sample(other, 5, 8, stream_keys(12, 0, 1)[0]))


def test_observation_path_composes_the_components():
    # both samplers return drift + rho1 dL + rho2 dz, each part drawn from
    # the same streams whatever the amplitudes, up to rounding: a cell
    # adds its terms before the drift, and the path's increments come
    # through its running sum
    S, n, p = SignalSpec.benchmark(), 12, 25

    def spec(rho1, rho2):
        return NoiseSpec(rho1=rho1, rho2=rho2, rho_check=0.6, jump_intensity=3.0)

    for sample, tol in ((period_sums, 1e-12), (path_increments, 1e-12)):
        drift = sample(spec(0.0, 0.0), n, p, stream_keys(13, 2, 3)[0], S)
        dL = sample(spec(1.0, 0.0), n, p, stream_keys(13, 2, 3)[0])
        dz = sample(spec(0.0, 1.0), n, p, stream_keys(13, 2, 3)[0])
        both = sample(spec(0.3, 0.8), n, p, stream_keys(13, 2, 3)[0], S)
        assert dL.any() and dz.any()
        assert np.abs(both - (drift + 0.3 * dL + 0.8 * dz)).max() <= tol


def test_renewal_times_shape():
    ts, [count] = _renewal_epochs(InterarrivalLaw.chi_squared(3.0), 50.0, stream_keys(1, 1, 2))
    assert count == ts.size > 0
    assert np.all(np.diff(ts) > 0)
    assert ts[0] > 0
    assert ts[-1] <= 50.0


def test_renewal_rate_exponential():
    ts, _ = _renewal_epochs(InterarrivalLaw.exponential(1.0), 10000.0, stream_keys(101, 0, 1))
    assert abs(ts.size / 10000.0 - 1.0) < 0.03


def test_renewal_rate_chi_squared():
    ts, _ = _renewal_epochs(InterarrivalLaw.chi_squared(3.0), 10000.0, stream_keys(102, 0, 1))
    assert abs(ts.size / 10000.0 - 1.0 / 3.0) < 0.01


def test_semimarkov_fixed_law_lands_in_the_right_cells():
    # fixed spacings put every epoch on a grid point, each in the cell it
    # closes, the last on the path's final point; the period sums fold
    # the path's cells onto one period
    for gap, n, p, cells in ((1.0, 5, 3, [2]), (0.5, 2, 4, [1, 3])):
        spec = NoiseSpec(rho1=0.0, rho2=1.0, interarrival=FixedSpacing(gap), marks="rademacher")
        dz = path_increments(spec, n, p, stream_keys(2, 0, 1)[0]).reshape(n, p)
        hit = np.zeros(p)
        hit[cells] = 1.0
        assert np.array_equal(np.abs(dz), np.tile(hit, (n, 1)))
        assert np.array_equal(period_sums(spec, n, p, stream_keys(2, 0, 1)[0]), dz.sum(axis=0))


def test_semimarkov_without_epochs_is_zero():
    # a first gap beyond the horizon leaves no epoch, and no increment
    spec = NoiseSpec(rho1=0.0, rho2=1.0, interarrival=FixedSpacing(2.5))
    for sample, cells in ((path_increments, 6), (period_sums, 3)):
        assert np.array_equal(sample(spec, 2, 3, stream_keys(2, 1, 2)[0]), np.zeros(cells))


@pytest.mark.parametrize("n, p", [(1, 3), (7, 11), (7, 12), (100, 1001), (1000, 10001), (1000, 100001),
                                  (50, 2000000), (33333333, 3)])
def test_epoch_cells_match_a_search_of_the_grid(n, p):
    # the cell rule must agree with searchsorted(arange(n*p+1)/p, t, "left") - 1
    # on cell edges and one ulp either side, where ceil(t * p) alone slips;
    # a grid value is j/p however the grid is sliced, and values two cells
    # away from t lie on the same side of it as their cells, so the grid is
    # searched only near each t and n*p up to 1e8 needs no 800 MB grid
    gen = np.random.default_rng(n * p)
    edges = np.unique(np.concatenate([[1, 2, n * p - 1, n * p], gen.integers(1, n * p + 1, 10000)]))
    near = np.concatenate([edges / p, edges * (1.0 / p)])
    times = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, np.inf), gen.uniform(0.0, n, 2000)])
    times = times[(times > 0.0) & (times <= n)]
    j = np.floor(times * p).astype(np.int64)[:, None] + np.arange(-2, 4)
    below = (j / p < times[:, None]) & (j >= 0) & (j <= n * p)
    reference = np.maximum(j[:, 0], 0) + below.sum(axis=1) - 1
    if n * p <= 10**6:
        assert np.array_equal(reference, np.searchsorted(np.arange(n * p + 1) / p, times, "left") - 1)
    assert np.array_equal(_epoch_cells(times, p), reference)


def test_levy_brownian_variance():
    # cells of width 0.01: 100000 cells of the path, the 100000 folded
    # cells of 1000 periods, to which `folded_path_sums` adds the
    # Brownian part that the period sums leave out
    spec = NoiseSpec(rho1=1.0, rho2=0.0)
    for d in (path_increments(spec, 1000, 100, stream_keys(201, 0, 1)[0]),
              folded_path_sums(np.zeros(100000), spec, 1000, stream_keys(201, 0, 1))[0]):
        assert abs(d.var() / 0.01 - 1.0) < 0.0134     # 3 * sqrt(2 / 1e5)
        assert abs(d.mean()) < 1e-3


def test_levy_two_point_jump_variance():
    # pure-jump path: compensated two-point jumps are normalised so each
    # cell still carries variance equal to its width
    spec = NoiseSpec(rho1=1.0, rho2=0.0, rho_check=0.0, jump_intensity=4.0, jump_law="two_point")
    for d in (path_increments(spec, 1000, 100, stream_keys(202, 0, 1)[0]),
              period_sums(spec, 1000, 100000, stream_keys(202, 0, 1)[0])):
        assert abs(d.var() / 0.01 - 1.0) < 0.05
        assert abs(d.mean()) < 1e-3


def test_noiseless_observations():
    quiet = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
    flat = sample_observations(ZERO, quiet, n=2, p=9, keys=stream_keys(4, 0, 1)[0])
    assert np.array_equal(flat.y, np.zeros(19))
    unit = sample_observations(SignalSpec.trig_polynomial([1.0]), quiet, n=2, p=9, keys=stream_keys(4, 0, 1)[0])
    assert np.allclose(unit.y, np.arange(19) / 9.0, atol=1e-12)


def test_observation_path_accessors():
    obs = sample_observations(ZERO, CHI2_SPEC, n=2, p=5, keys=stream_keys(5, 0, 1)[0])
    assert increments(obs).shape == (10,)
    with pytest.raises(ValueError):
        ObservationPath(n=2, p=5, y=np.zeros(10))
    with pytest.raises(ValueError):
        ObservationPath(n=2, p=5, y=np.ones(11))


def test_terminal_value_is_centred_on_the_drift():
    # E y(n) = n * mean(S); the noise contributes nothing on average
    n, p, reps = 10, 40, 4000
    bench = SignalSpec.benchmark()
    ends = np.empty(reps)
    for r in range(reps):
        ends[r] = sample_observations(bench, CHI2_SPEC, n=n, p=p, keys=stream_keys(401, r, r + 1)[0]).y[-1]
    se = ends.std(ddof=1) / np.sqrt(reps)
    assert abs(ends.mean() - n * 0.1875) <= 3.0 * se


def test_noise_integral_variance_identity():
    # int f dxi over [0, n] has variance n * sigma_q * |f|^2 for trig f;
    # exponential spacings with rate 1/3 give sigma_q = 1/4 + 1/12 = 1/3
    spec = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.exponential(1.0 / 3.0))
    n, p, reps = 20, 51, 5000
    grid = np.arange(1, n * p + 1) / p
    basis = np.stack([trig_basis_eval(2, grid), trig_basis_eval(3, grid)])
    stats = np.empty((reps, 2))
    for r in range(reps):
        dy = increments(sample_observations(ZERO, spec, n=n, p=p, keys=stream_keys(301, r, r + 1)[0]))
        stats[r] = (basis @ dy) ** 2 / n
    for k in range(2):
        se = stats[:, k].std(ddof=1) / np.sqrt(reps)
        assert abs(stats[:, k].mean() - 1.0 / 3.0) <= 3.0 * se


def test_terminal_variance_matches_renewal_integral():
    # Var y(n) = rho1^2 * n + rho2^2 * int_0^n rho(s) ds when S = 0
    n, p, reps = 5, 200, 3000
    ends = np.empty(reps)
    for r in range(reps):
        ends[r] = sample_observations(ZERO, CHI2_SPEC, n=n, p=p, keys=stream_keys(402, r, r + 1)[0]).y[-1]
    sol = solve_renewal_density(InterarrivalLaw.chi_squared(3.0), h=1e-3, horizon=60.0)
    m = int(round(n / sol.h))
    expected = 0.25 * n + 0.25 * np.trapezoid(sol.rho[: m + 1], dx=sol.h)
    second = ends**2
    se = second.std(ddof=1) / np.sqrt(reps)
    assert abs(second.mean() - expected) <= 3.0 * se


def test_mark_count_variance_tracks_the_renewal_function():
    # Var z(n) equals the expected number of epochs in [0, n], which the
    # renewal density integrates to n / tau_bar + O(1)
    n, reps = 100, 3000
    marks_only = NoiseSpec(rho1=0.0, rho2=1.0)
    ends = np.empty(reps)
    for r in range(reps):
        ends[r] = period_sums(marks_only, n, 3, stream_keys(55, r, r + 1)[0]).sum()
    sol = solve_renewal_density(InterarrivalLaw.chi_squared(3.0), h=5e-3, horizon=120.0)
    m = int(round(n / sol.h))
    expected = np.trapezoid(sol.rho[: m + 1], dx=sol.h)
    var = ends.var(ddof=1)
    se = np.sqrt(2.0 / reps) * expected
    assert abs(var - expected) <= 3.0 * se


@pytest.mark.parametrize(
    "draw",
    [
        lambda g: _sample_marks("rademacher", g, 33),
        lambda g: _sample_marks("uniform", g, 33),
        lambda g: g.standard_normal(33),
        lambda g: g.integers(0, 2, 33) * 2.0 - 1.0,
        lambda g: g.integers(0, 2**32, 7, dtype=np.uint32),
    ],
    ids=["rademacher_marks", "uniform_marks", "gaussian_jumps", "two_point_jumps", "odd_uint32"],
)
def test_rekeyed_components_draw_as_fresh_generators(draw):
    # the block sampler re-keys one generator per component for every
    # stream; whatever the last stream left in it, mid-buffer and with a
    # saved 32-bit half, the next stream draws a fresh generator's bits
    for seed, start in [(0, 0), (2**64 + 5, 9998)]:
        for stream, row in enumerate(stream_keys(seed, start, start + 3), start=start):
            for tag in range(4):
                dirty = _rekeyed(tag, stream_keys(99, 7, 8)[0])
                dirty.random(5)
                dirty.integers(0, 2**32, 1, dtype=np.uint32)
                state = dirty.bit_generator.state
                assert state["buffer_pos"] == 2 and state["has_uint32"] == 1
                expected = draw(reference_generator(seed, stream, tag))
                assert np.array_equal(draw(_rekeyed(tag, row)), expected)


class ShortFirstChunk:
    """A law whose mean claims 1 while a chunk whose first uniform lies
    below 0.2 draws gaps below 0.01: such a stream's first chunk ends far
    short of the horizon."""

    def mean(self):
        return 1.0

    def sample(self, rng, size):
        u = rng.random(size)
        return u * (0.01 if u[0] < 0.2 else 4.0)


def _rows(epochs, counts):
    return np.split(epochs, np.cumsum(counts)[:-1])


def _assert_reference_rows(law, horizon, seed, start, stop):
    epochs, counts = _renewal_epochs(law, horizon, stream_keys(seed, start, stop))
    rows = _rows(epochs, counts)
    assert len(rows) == stop - start
    for stream, row in enumerate(rows, start=start):
        assert np.array_equal(row, reference_renewal_times(law, horizon, seed, stream))
    return counts


def test_block_continues_a_short_row_as_plain_numpy():
    # one row of this block falls short of the horizon on its first
    # chunk; it is drawn on, a chunk at a time, with the reference's bits
    law, streams = ShortFirstChunk(), stream_keys(2, 0, 8)
    counts = _assert_reference_rows(law, 10.0, 2, 0, 8)
    assert [i for i, count in enumerate(counts) if count > renewal_chunk(law, 10.0)] == [5]
    # and the noise over the block is its rows drawn one at a time
    spec = NoiseSpec(rho1=0.3, rho2=0.8, interarrival=law, marks="uniform")
    block = sample_period_sums(np.zeros(11), spec, 10, streams)
    for row, keys in zip(block, streams):
        assert np.array_equal(row, sample_period_sums(np.zeros(11), spec, 10, [keys])[0])


class Far:
    """A law whose mean claims 1e9, so every chunk holds 22 gaps, while
    its gaps are uniform on [0, 5): a chunk ends near 55."""

    def mean(self):
        return 1e9

    def sample(self, rng, size):
        return rng.random(size) * 5.0


def test_block_stops_where_the_running_sum_passes_the_horizon():
    # a chunk's pairwise sum and its last running sum can differ in the
    # last bits; at horizons on and one ulp beside either sum of each
    # row's first chunk, every row has the reference's epochs, which
    # stop where the running sum passes the horizon
    law = Far()
    sums = []
    for stream in range(8):
        gaps = law.sample(reference_generator(6, stream, 0), 22)
        sums.append((float(gaps.sum()), float(gaps.cumsum()[-1])))
    assert any(s != c for s, c in sums)
    for pair in sums:
        for x in pair:
            for horizon in (np.nextafter(x, 0.0), x, np.nextafter(x, 99.0)):
                assert renewal_chunk(law, horizon) == 22
                _assert_reference_rows(law, horizon, 6, 0, 8)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64), start=st.integers(0, 2**32 - 9),
       law=st.sampled_from([InterarrivalLaw.exponential(1.0 / 3.0), InterarrivalLaw.gamma(2.0, 1.5),
                            InterarrivalLaw.chi_squared(3.0)]),
       horizon=st.floats(1e-3, 300.0))
def test_block_epochs_are_plain_numpy_renewal_epochs(seed, start, law, horizon):
    _assert_reference_rows(law, horizon, seed, start, start + 8)


LAWS = (
    InterarrivalLaw.exponential(1.0 / 3.0),
    InterarrivalLaw.gamma(2.0, 1.5),
    InterarrivalLaw.chi_squared(3.0),
    FixedSpacing(),
)


@pytest.mark.parametrize("p", [11, 12])
@pytest.mark.parametrize("marks", ["normal", "rademacher", "uniform"])
@pytest.mark.parametrize("law", LAWS, ids=["exponential", "gamma", "chi_squared", "fixed"])
def test_period_sums_match_the_folded_path(law, marks, p):
    # without the Levy part the folded sampler reuses the path's epochs
    # and marks, so it equals the full path folded onto one period
    spec = NoiseSpec(rho1=0.0, rho2=0.8, interarrival=law, marks=marks)
    n = 7
    block = sample_period_sums(n * cell_integrals(SignalSpec.benchmark(), p), spec, n,
                               stream_keys(61, 0, 4))
    for r, sums in enumerate(block):
        path = sample_observations(SignalSpec.benchmark(), spec, n=n, p=p, keys=stream_keys(61, r, r + 1)[0])
        assert np.abs(sums - increments(path).reshape(n, p).sum(axis=0)).max() <= 1e-12


@pytest.mark.parametrize(
    "levy",
    [{}, {"rho_check": 0.6, "jump_intensity": 2.0},
     {"rho_check": 0.0, "jump_intensity": 0.7, "jump_law": "two_point"}],
    ids=["brownian", "gaussian_jumps", "two_point_jumps"],
)
@pytest.mark.parametrize("marks", ["normal", "rademacher", "uniform"])
def test_period_sums_block_is_its_streams_drawn_one_at_a_time(marks, levy):
    # a block draws each stream's own substreams and runs the cell rule,
    # the per-cell sums and the arithmetic over all rows at once
    spec = NoiseSpec(rho1=0.7, rho2=0.4, marks=marks, **levy)
    n, p = 30, 101
    drift = n * cell_integrals(SignalSpec.benchmark(), p)
    streams = stream_keys(5, 10, 17)
    block = sample_period_sums(drift, spec, n, streams)
    assert block.shape == (7, p)
    for row, keys in zip(block, streams):
        [one] = sample_period_sums(drift, spec, n, [keys])
        assert np.array_equal(row, one)


@pytest.mark.parametrize(
    "rho2, levy, tol",
    [(0.5, {}, 0.0), (0.3, {}, 1e-12), (0.3, {"rho_check": 0.6, "jump_intensity": 2.0}, 1e-12),
     (0.3, {"rho_check": 0.0, "jump_intensity": 0.7, "jump_law": "two_point"}, 1e-12)],
    ids=["exact", "rounded", "gaussian_jumps", "two_point_jumps"],
)
def test_term_sums_match_the_dense_reference(rho2, levy, tol):
    # the period sums and the path are per-cell sums of the streams'
    # terms; the dense sampler they replaced scaled each cell's sum of
    # marks by rho2 once and added the jumps before the drift, so the two
    # agree bit for bit where rho2 scales exactly and no cell holds a jump
    spec = NoiseSpec(rho1=0.7, rho2=rho2, interarrival=InterarrivalLaw.exponential(3.0), **levy)
    S, n, p, streams = SignalSpec.benchmark(), 20, 11, stream_keys(8, 0, 5)
    _, epochs = _renewal_epochs(spec.interarrival, float(n), streams)
    assert min(epochs) > 2 * p    # cells hold several epochs each
    drift = n * cell_integrals(S, p)
    sums = sample_period_sums(drift, spec, n, streams)
    assert np.abs(sums - reference_noise.sample_period_sums(drift, spec, n, streams)).max() <= tol
    for keys in streams:
        path = increments(sample_observations(S, spec, n, p, keys))
        assert np.abs(path - increments(reference_noise.sample_observations(S, spec, n, p, keys))).max() <= tol


def test_noiseless_period_sums_are_the_drift():
    quiet = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
    S = SignalSpec.benchmark()
    drift = 13 * cell_integrals(S, 101)
    [sums] = sample_period_sums(drift, quiet, 13, stream_keys(4, 0, 1))
    assert np.array_equal(sums, drift)


def test_period_sums_validation():
    with pytest.raises(ValueError):
        sample_period_sums(np.zeros(11), CHI2_SPEC, 0, stream_keys(1, 0, 1))
    with pytest.raises(ValueError):
        sample_period_sums(np.zeros(2), CHI2_SPEC, 3, stream_keys(1, 0, 1))


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(rho1=-0.1, rho2=0.5)
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            NoiseSpec(rho1=bad, rho2=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(rho1=0.5, rho2=bad)
        with pytest.raises(ValueError):
            NoiseSpec(rho1=0.5, rho2=0.5, rho_check=0.5, jump_intensity=bad)
    with pytest.raises(ValueError):
        NoiseSpec(rho1=0.5, rho2=0.5, rho_check=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(rho1=0.5, rho2=0.5, rho_check=0.5)    # a jump part needs an intensity
    with pytest.raises(ValueError):
        NoiseSpec(rho1=0.5, rho2=0.5, marks="cauchy")
    for intensity in (0.0, 1.0):                         # the law is checked with or without jumps
        with pytest.raises(ValueError):
            NoiseSpec(rho1=0.5, rho2=0.5, jump_intensity=intensity, jump_law="stable")
    assert NoiseSpec(rho1=0.5, rho2=0.5, rho_check=0.5, jump_intensity=1.0, jump_law="two_point")
