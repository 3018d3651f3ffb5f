"""Tests for the semi-Markov / Levy noise simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox, SeedSequence

from driftsel.noise import (
    LevyJumpSpec,
    NoiseSpec,
    ObservationPath,
    RngStream,
    _PhiloxKey,
    _substream_keys,
    sample_levy_increments,
    sample_observations,
    sample_period_sums,
    sample_renewal_times,
    sample_semimarkov_increments,
)
from driftsel.renewal import InterarrivalLaw, solve_renewal_density
from driftsel.signal import SignalSpec, cell_integrals, trig_basis_eval

CHI2_SPEC = NoiseSpec(rho1=0.5, rho2=0.5, interarrival=InterarrivalLaw.chi_squared(3.0))
ZERO = SignalSpec.trig_polynomial([0.0])


class UnitSpacing:
    """Degenerate law with every gap equal to 1: the two methods the samplers call."""

    def mean(self):
        return 1.0

    def sample(self, rng, size):
        return np.full(size, 1.0)


def test_same_seed_gives_identical_paths():
    a = sample_observations(SignalSpec.benchmark(), CHI2_SPEC, n=3, p=17, rng=RngStream(7, 3))
    b = sample_observations(SignalSpec.benchmark(), CHI2_SPEC, n=3, p=17, rng=RngStream(7, 3))
    assert np.array_equal(a.y, b.y)


def test_stream_index_changes_path():
    a = sample_observations(ZERO, CHI2_SPEC, n=3, p=17, rng=RngStream(7, 0))
    b = sample_observations(ZERO, CHI2_SPEC, n=3, p=17, rng=RngStream(7, 1))
    assert not np.array_equal(a.y, b.y)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1), rep=st.integers(0, 2**31))
def test_reproducibility_for_arbitrary_seeds(seed, rep):
    a = sample_observations(ZERO, CHI2_SPEC, n=2, p=7, rng=RngStream(seed, rep))
    b = sample_observations(ZERO, CHI2_SPEC, n=2, p=7, rng=RngStream(seed, rep))
    assert np.array_equal(a.y, b.y)


# the last seed has six 32-bit words, so SeedSequence mixes it unpadded
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1, 2**160 + 12345]
KEY_STREAMS = [0, 1, 49, 50, 9999, 2**32 - 1]


def reference_key(seed, stream, tag):
    return SeedSequence(seed, spawn_key=(stream, tag)).generate_state(2, np.uint64)


def reference_generator(seed, stream, tag):
    return Generator(Philox(SeedSequence(seed, spawn_key=(stream, tag))))


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_substream_keys_match_seed_sequence(seed):
    for stream in KEY_STREAMS:
        keys = _substream_keys(seed, stream, stream + 1)
        assert keys.shape == (1, 4, 2) and keys.dtype == np.uint64
        for tag in range(4):
            assert np.array_equal(keys[0, tag], reference_key(seed, stream, tag))
    # one pass over a chunk gives every stream its own keys
    block = _substream_keys(seed, 40, 60)
    assert block.shape == (20, 4, 2)
    for i in range(20):
        for tag in range(4):
            assert np.array_equal(block[i, tag], reference_key(seed, 40 + i, tag))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**200),
       stream=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70), st.integers(-(2**40), -1)),
       tag=st.integers(0, 3))
def test_substream_keys_match_or_refuse(seed, stream, tag):
    # a stream index the one-word derivation cannot match must raise,
    # never give another stream's key
    if 0 <= stream < 2**32:
        assert np.array_equal(_substream_keys(seed, stream, stream + 1)[0, tag], reference_key(seed, stream, tag))
        ours = RngStream(seed, stream).generator(tag).integers(0, 2**63, 8)
        assert np.array_equal(ours, reference_generator(seed, stream, tag).integers(0, 2**63, 8))
    else:
        with pytest.raises(ValueError):
            RngStream(seed, stream).generator(tag)


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
        for offset, rng in enumerate(RngStream.span(seed, start, start + 3)):
            assert rng == RngStream(seed, start + offset)
            for tag in range(4):
                expected = draw(reference_generator(seed, start + offset, tag))
                assert np.array_equal(draw(rng.generator(tag)), expected)
                assert np.array_equal(draw(RngStream(seed, start + offset).generator(tag)), expected)


def test_substream_keys_refuse_what_they_cannot_match():
    for seed in (-1, -(2**40)):
        with pytest.raises(ValueError):
            RngStream(seed, 0).generator(0)
    for tag in (-1, 4):
        with pytest.raises(ValueError):
            RngStream(3, 0).generator(tag)
    with pytest.raises(ValueError):
        RngStream.span(3, 2**32 - 1, 2**32 + 1)
    key = _PhiloxKey(reference_key(3, 0, 0))
    for request in ((4,), (2,), (2, np.uint32), (4, np.uint64)):
        with pytest.raises(ValueError):
            key.generate_state(*request)


def test_semimarkov_component_ignores_levy_settings():
    grid = np.arange(0, 41) / 8.0
    jumpy = NoiseSpec(
        rho1=0.5,
        rho2=0.5,
        rho_check=0.7,
        interarrival=InterarrivalLaw.chi_squared(3.0),
        jumps=LevyJumpSpec(intensity=5.0),
    )
    z_a = sample_semimarkov_increments(grid, CHI2_SPEC, RngStream(11, 0))
    z_b = sample_semimarkov_increments(grid, jumpy, RngStream(11, 0))
    assert np.array_equal(z_a, z_b)


def test_levy_component_ignores_renewal_settings():
    grid = np.arange(0, 41) / 8.0
    other = NoiseSpec(
        rho1=0.5,
        rho2=0.5,
        interarrival=InterarrivalLaw.gamma(2.0, 1.0),
        marks="rademacher",
    )
    l_a = sample_levy_increments(grid, CHI2_SPEC, RngStream(12, 0))
    l_b = sample_levy_increments(grid, other, RngStream(12, 0))
    assert np.array_equal(l_a, l_b)


def test_observation_path_composes_the_components():
    # with no Brownian/jump amplitude the path is exactly the running
    # sum of the semi-Markov increments drawn from the same streams
    spec = NoiseSpec(rho1=0.0, rho2=1.0, interarrival=InterarrivalLaw.chi_squared(3.0))
    n, p = 4, 25
    obs = sample_observations(ZERO, spec, n=n, p=p, rng=RngStream(13, 2))
    grid = np.arange(n * p + 1) / p
    z = sample_semimarkov_increments(grid, spec, RngStream(13, 2))
    assert np.array_equal(obs.y, np.concatenate(([0.0], np.cumsum(z))))


def test_renewal_times_shape():
    rng = RngStream(1, 0)
    assert sample_renewal_times(InterarrivalLaw.exponential(1.0), 0.0, rng).size == 0
    ts = sample_renewal_times(InterarrivalLaw.chi_squared(3.0), 50.0, RngStream(1, 1))
    assert np.all(np.diff(ts) > 0)
    assert ts[0] > 0
    assert ts[-1] <= 50.0


def test_renewal_rate_exponential():
    ts = sample_renewal_times(InterarrivalLaw.exponential(1.0), 10000.0, RngStream(101, 0))
    assert abs(ts.size / 10000.0 - 1.0) < 0.03


def test_renewal_rate_chi_squared():
    ts = sample_renewal_times(InterarrivalLaw.chi_squared(3.0), 10000.0, RngStream(102, 0))
    assert abs(ts.size / 10000.0 - 1.0 / 3.0) < 0.01


def test_semimarkov_fixed_law_lands_in_the_right_cells():
    # unit spacings put exactly one epoch in each cell (l-1, l], including
    # the epoch sitting exactly on the right endpoint of the last cell
    spec = NoiseSpec(rho1=0.0, rho2=1.0, interarrival=UnitSpacing(), marks="rademacher")
    grid = np.arange(6.0)
    z = sample_semimarkov_increments(grid, spec, RngStream(2, 0))
    assert np.array_equal(np.abs(z), np.ones(5))


def test_semimarkov_without_epochs_is_zero():
    spec = NoiseSpec(rho1=0.0, rho2=1.0, interarrival=UnitSpacing())
    z = sample_semimarkov_increments(np.array([0.0, 0.5]), spec, RngStream(2, 1))
    assert np.array_equal(z, np.zeros(1))


def test_semimarkov_rejects_decreasing_grid():
    with pytest.raises(ValueError):
        sample_semimarkov_increments(np.array([0.0, 1.0, 0.5]), CHI2_SPEC, RngStream(2, 2))


def test_levy_brownian_variance():
    grid = np.arange(100001) * 0.01
    d = sample_levy_increments(grid, CHI2_SPEC, RngStream(201, 0))
    assert abs(d.var() / 0.01 - 1.0) < 0.0134     # 3 * sqrt(2 / 1e5)
    assert abs(d.mean()) < 1e-3


def test_levy_two_point_jump_variance():
    # pure-jump path: compensated two-point jumps are normalised so each
    # cell still carries variance equal to its width
    spec = NoiseSpec(
        rho1=1.0,
        rho2=0.0,
        rho_check=0.0,
        jumps=LevyJumpSpec(intensity=4.0, law="two_point"),
    )
    grid = np.arange(100001) * 0.01
    d = sample_levy_increments(grid, spec, RngStream(202, 0))
    assert abs(d.var() / 0.01 - 1.0) < 0.05
    assert abs(d.mean()) < 1e-3


def test_levy_zero_width_cell_is_zero():
    grid = np.array([0.0, 0.5, 0.5, 1.0])
    spec = NoiseSpec(
        rho1=1.0,
        rho2=0.0,
        rho_check=0.6,
        jumps=LevyJumpSpec(intensity=3.0),
    )
    d = sample_levy_increments(grid, spec, RngStream(3, 0))
    assert d[1] == 0.0


def test_noiseless_observations():
    quiet = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
    flat = sample_observations(ZERO, quiet, n=2, p=9, rng=RngStream(4, 0))
    assert np.array_equal(flat.y, np.zeros(19))
    unit = sample_observations(SignalSpec.trig_polynomial([1.0]), quiet, n=2, p=9, rng=RngStream(4, 0))
    assert np.allclose(unit.y, np.arange(19) / 9.0, atol=1e-12)


def test_observation_path_accessors():
    obs = sample_observations(ZERO, CHI2_SPEC, n=2, p=5, rng=RngStream(5, 0))
    assert obs.increments.shape == (10,)
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
        ends[r] = sample_observations(bench, CHI2_SPEC, n=n, p=p, rng=RngStream(401, r)).y[-1]
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
        dy = sample_observations(ZERO, spec, n=n, p=p, rng=RngStream(301, r)).increments
        stats[r] = (basis @ dy) ** 2 / n
    for k in range(2):
        se = stats[:, k].std(ddof=1) / np.sqrt(reps)
        assert abs(stats[:, k].mean() - 1.0 / 3.0) <= 3.0 * se


def test_terminal_variance_matches_renewal_integral():
    # Var y(n) = rho1^2 * n + rho2^2 * int_0^n rho(s) ds when S = 0
    n, p, reps = 5, 200, 3000
    ends = np.empty(reps)
    for r in range(reps):
        ends[r] = sample_observations(ZERO, CHI2_SPEC, n=n, p=p, rng=RngStream(402, r)).y[-1]
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
    grid = np.arange(0.0, n + 1.0)
    ends = np.empty(reps)
    for r in range(reps):
        ends[r] = sample_semimarkov_increments(grid, CHI2_SPEC, RngStream(55, r)).sum()
    sol = solve_renewal_density(InterarrivalLaw.chi_squared(3.0), h=5e-3, horizon=120.0)
    m = int(round(n / sol.h))
    expected = np.trapezoid(sol.rho[: m + 1], dx=sol.h)
    var = ends.var(ddof=1)
    se = np.sqrt(2.0 / reps) * expected
    assert abs(var - expected) <= 3.0 * se


LAWS = (
    InterarrivalLaw.exponential(1.0 / 3.0),
    InterarrivalLaw.gamma(2.0, 1.5),
    InterarrivalLaw.chi_squared(3.0),
    UnitSpacing(),
)


@pytest.mark.parametrize("p", [11, 12])
@pytest.mark.parametrize("marks", ["normal", "rademacher", "uniform"])
@pytest.mark.parametrize("law", LAWS, ids=["exponential", "gamma", "chi_squared", "fixed"])
def test_period_sums_match_the_folded_path(law, marks, p):
    # without the Levy part the folded sampler reuses the path's epochs
    # and marks, so it equals the full path folded onto one period
    spec = NoiseSpec(rho1=0.0, rho2=0.8, interarrival=law, marks=marks)
    n = 7
    for r in range(4):
        sums = sample_period_sums(n * cell_integrals(SignalSpec.benchmark(), p), spec, n, RngStream(61, r))
        path = sample_observations(SignalSpec.benchmark(), spec, n=n, p=p, rng=RngStream(61, r))
        assert np.abs(sums - path.increments.reshape(n, p).sum(axis=0)).max() <= 1e-12


def test_noiseless_period_sums_are_the_drift():
    quiet = NoiseSpec(rho1=0.0, rho2=0.0, interarrival=InterarrivalLaw.chi_squared(3.0))
    S = SignalSpec.benchmark()
    drift = 13 * cell_integrals(S, 101)
    assert np.array_equal(sample_period_sums(drift, quiet, 13, RngStream(4, 0)), drift)


def test_period_sums_validation():
    with pytest.raises(ValueError):
        sample_period_sums(np.zeros(11), CHI2_SPEC, 0, RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_period_sums(np.zeros(2), CHI2_SPEC, 3, RngStream(1, 0))


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(rho1=-0.1, rho2=0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            NoiseSpec(rho1=bad, rho2=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(rho1=0.5, rho2=bad)
        with pytest.raises(ValueError):
            LevyJumpSpec(intensity=bad)
    with pytest.raises(ValueError):
        NoiseSpec(rho1=0.5, rho2=0.5, rho_check=1.5)
    with pytest.raises(ValueError):
        NoiseSpec(rho1=0.5, rho2=0.5, rho_check=0.5)    # jump part needs a law
    with pytest.raises(ValueError):
        NoiseSpec(rho1=0.5, rho2=0.5, marks="cauchy")
    with pytest.raises(ValueError):
        LevyJumpSpec(intensity=0.0)
    with pytest.raises(ValueError):
        LevyJumpSpec(intensity=1.0, law="stable")
