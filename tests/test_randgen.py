"""Seeded randomness: stream derivation, Gaussian sampling, Haar rotations,
normalization, and the phase-one parameter formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shadowlp import randgen
from shadowlp.geometry import GeneralLP
from shadowlp.interpolate import solve_lp
from shadowlp.randgen import (
    C1,
    SmoothedSpec,
    added_sigma,
    derive_rng,
    gaussian,
    haar_rotation,
    norm_ceiling,
    normalize,
    random_spec,
    sample_instance,
    sigma_cap,
    simplex_radius,
    smoothed_points,
    sub_seed,
)

from helpers import reference_haar_rotation


# ---------------------------------------------------------------------------
# parameter formulas


def test_simplex_radius_formula():
    assert C1 == pytest.approx(1.0 / 300.0)
    for d in (2, 3, 10, 100):
        assert simplex_radius(d) == pytest.approx(C1 / math.sqrt(math.log(d)))


def test_added_sigma_frozen_value_and_min_structure():
    # d=4, n=100: cap branch 1/(6 sqrt(4 ln 100)) ~ 0.038833 loses to the
    # simplex branch (1/300)/(8 ln 4) ~ 3.0056e-4.
    assert sigma_cap(4, 100) == pytest.approx(0.0388325, abs=2e-6)
    assert added_sigma(4, 100) == pytest.approx(3.00563e-4, rel=1e-4)
    for d, n in ((2, 5), (3, 20), (4, 100), (6, 1000)):
        cap = 1.0 / (6.0 * math.sqrt(d * math.log(n)))
        assert added_sigma(d, n) <= cap + 1e-15
        assert added_sigma(d, n) == pytest.approx(
            min(cap, C1 / (d ** 1.5 * math.log(d))))


def test_norm_ceiling_fixed_points_and_range():
    assert norm_ceiling(1.0) == pytest.approx(1.0)
    assert norm_ceiling(1.5) == pytest.approx(math.e)
    rng = derive_rng(301)
    for m in np.exp(rng.uniform(-14, 14, size=2000)):
        m0 = norm_ceiling(float(m))
        assert m <= m0 * (1 + 1e-12)
        assert m0 < math.e * m * (1 + 1e-12)


# ---------------------------------------------------------------------------
# stream derivation


def test_derive_rng_is_deterministic_and_key_separated():
    a = derive_rng(7, 1, 2).integers(0, 2 ** 63, size=4)
    b = derive_rng(7, 1, 2).integers(0, 2 ** 63, size=4)
    c = derive_rng(7, 1, 3).integers(0, 2 ** 63, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_rng_and_solve_lp_refuse_generator_and_seedsequence():
    lp = GeneralLP(A=[[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], b=[1.0, 1.0, 1.0], z=[1.0, 1.0])
    for seed in (np.random.default_rng(5), np.random.SeedSequence(99, spawn_key=(4,))):
        with pytest.raises(TypeError):
            derive_rng(seed, 1)
        with pytest.raises(TypeError):
            solve_lp(lp, rng=seed)


def test_sub_seed_is_deterministic_and_63_bit():
    a = sub_seed(5, 1, 0, 0)
    assert a == sub_seed(5, 1, 0, 0)
    assert a != sub_seed(5, 1, 0, 1)
    assert a != sub_seed(5, 2, 0, 0)
    assert 0 <= a < 2 ** 63
    # The first word shifted right by one is numpy's integers(0, 2 ** 63) on
    # the same stream: 20 000 (seed, key) pairs, keys of length 0 to 4.
    picker = np.random.default_rng(1202)
    seeds = picker.integers(0, 2 ** 64, size=20_000, dtype=np.uint64)
    lengths = picker.integers(0, 5, size=seeds.size)
    for seed, length in zip(seeds.tolist(), lengths.tolist()):
        key = picker.integers(0, 2 ** 32, size=length).tolist()
        assert sub_seed(seed, *key) == int(derive_rng(seed, *key).integers(0, 2 ** 63)), (seed, key)


def test_open_uniform_is_integers_2_53_bit_for_bit():
    # The raw words shifted right by 11 are numpy's integers(0, 2 ** 53) on
    # the same stream, and the next raw word agrees too, so the stream is
    # left where integers leaves it: 3000 seeds over the library's shapes
    # (a rotation, a Phase-I block, instance and section arrays).
    shapes = [(2, 2), (3, 3), (10, 10), (40, 40), (16, 4), (4096, 4), (3000, 2), (400, 11)]
    picker = np.random.default_rng(2053)
    for seed in picker.integers(0, 2 ** 64, size=3000, dtype=np.uint64).tolist():
        shape = shapes[seed % len(shapes)]
        ours, numpys = derive_rng(seed, 1), derive_rng(seed, 1)
        k = (numpys.integers(0, 1 << 53, size=shape).astype(np.float64) + 0.5) * 2.0 ** -53
        assert np.array_equal(randgen._open_uniform(ours, shape), k), (seed, shape)
        assert ours.bit_generator.random_raw() == numpys.bit_generator.random_raw(), seed


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_open_uniform_on_other_bit_generators_is_integers_2_53(bit_generator):
    # MT19937's raw words are 32 bits wide: shifting them would leave every
    # uniform below 2^-32 and every Gaussian near -6.3.
    for seed in range(50):
        ours, numpys = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        k = numpys.integers(0, 1 << 53, size=(40, 3))
        assert np.array_equal(randgen._open_uniform(ours, (40, 3)), (k + 0.5) * 2.0 ** -53)
        assert ours.integers(0, 2 ** 64, dtype=np.uint64) == numpys.integers(0, 2 ** 64, dtype=np.uint64)
    assert abs(float(np.mean(randgen.gaussian(np.random.Generator(bit_generator(1)), 4000)))) < 0.1


def _two_step(seed, *key):
    """The construction derive_rng must reproduce: SeedSequence(seed) with
    its spawn key extended by the key."""
    base = np.random.SeedSequence(seed)
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=base.entropy, spawn_key=spawn_key))


def _same_stream(a, b):
    return (a.bit_generator.state == b.bit_generator.state
            and np.array_equal(a.integers(0, 2 ** 63, size=3), b.integers(0, 2 ** 63, size=3)))


def test_derive_rng_integer_seeds_equal_the_two_step_construction():
    picker = np.random.default_rng(1201)
    seeds = [0, 1, 2 ** 63 - 1, 2 ** 64 - 1, 2 ** 100 + 3, np.int64(7), np.int32(12),
             np.uint64(2 ** 64 - 1), np.uint8(255)]
    seeds += [int(s) for s in picker.integers(0, 2 ** 63, size=120)]
    seeds += list(picker.integers(0, 2 ** 64, size=120, dtype=np.uint64))
    pairs = 0
    for seed in seeds:
        for length in range(5):
            key = [int(k) for k in picker.integers(0, 2 ** 32, size=length)]
            if length >= 2:
                key[1] = np.int64(key[1])  # numpy integers in the key too
            if length == 4:
                key[3] = 2 ** 63 - 1
            assert _same_stream(derive_rng(seed, *key), _two_step(seed, *key)), (seed, key)
            pairs += 1
    assert pairs >= 1000


def test_derive_rng_fresh_entropy_for_none_and_refuses_negative_seeds():
    a, b = derive_rng(None, 1), derive_rng(None, 1)
    assert isinstance(a, np.random.Generator)
    assert not np.array_equal(a.integers(0, 2 ** 63, size=4), b.integers(0, 2 ** 63, size=4))
    for key in ((), (1,), (2, 3)):
        with pytest.raises(ValueError):
            derive_rng(-1, *key)
        with pytest.raises(ValueError):
            derive_rng(np.int64(-5), *key)


# ---------------------------------------------------------------------------
# gaussian sampling


def test_gaussian_moments_and_determinism():
    draws = gaussian(derive_rng(302), (100000,), center=2.0, sigma=0.5)
    again = gaussian(derive_rng(302), (100000,), center=2.0, sigma=0.5)
    assert np.array_equal(draws, again)
    n = draws.size
    assert abs(draws.mean() - 2.0) <= 5 * 0.5 / math.sqrt(n)
    assert abs(draws.std() - 0.5) <= 5 * 0.5 / math.sqrt(n)


def test_gaussian_zero_sigma_returns_centers():
    centers = np.arange(6.0).reshape(2, 3)
    assert np.array_equal(gaussian(derive_rng(303), (2, 3), center=centers,
                                   sigma=0.0), centers)


def test_gaussian_norm_tail_bound():
    """Vector norm deviations beyond 3*sigma*sqrt(d log n) are essentially
    never observed (d=3, n=10 scaling)."""
    d, n = 3, 10
    sigma = 0.7
    draws = gaussian(derive_rng(304), (20000, d), sigma=sigma)
    radius = 3.0 * sigma * math.sqrt(d * math.log(n))
    exceed = int(np.sum(np.linalg.norm(draws, axis=1) >= radius))
    bound = 10.0 * n ** (-2.9 * d + 1)  # ~ 2e-7 per draw
    assert exceed <= 20000 * bound + 3  # Monte Carlo slack


# ---------------------------------------------------------------------------
# Haar rotations


def test_haar_rotation_is_orthogonal():
    for d in (2, 3, 4, 6):
        u = haar_rotation(d, derive_rng(305, d))
        assert np.allclose(u.T @ u, np.eye(d), atol=10 * d * 1e-9)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-9


@settings(max_examples=200)
@given(d=st.integers(2, 41), seed=st.integers(0, 2 ** 63 - 1))
def test_haar_rotation_keeps_the_bits_of_numpy_qr(d, seed):
    """The dgeqrf + dorgqr form gives numpy.linalg.qr's bytes, in C order,
    and leaves the stream where the numpy form leaves it."""
    rng, twin = derive_rng(seed), derive_rng(seed)
    got, want = haar_rotation(d, rng), reference_haar_rotation(d, twin)
    assert got.flags.c_contiguous and want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert rng.integers(0, 2 ** 63) == twin.integers(0, 2 ** 63)


def test_haar_rotation_uniformity_mean():
    rng = derive_rng(306)
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    images = np.stack([haar_rotation(4, rng) @ e1 for _ in range(10000)])
    assert np.linalg.norm(images.mean(axis=0)) <= 0.05


def test_haar_rotation_angle_uniform_in_2d():
    rng = derive_rng(307)
    n = 10000
    angles = np.empty(n)
    for i in range(n):
        image = haar_rotation(2, rng) @ np.array([1.0, 0.0])
        angles[i] = math.atan2(image[1], image[0]) % (2 * math.pi)
    sorted_u = np.sort(angles) / (2 * math.pi)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - sorted_u), np.max(sorted_u - (grid - 1.0 / n)))
    assert ks <= 1.63 / math.sqrt(n)  # 1% critical value


# ---------------------------------------------------------------------------
# smoothed specs


def _spec(scale=1.0, sigma=1.0):
    rng = derive_rng(308)
    centers = rng.standard_normal((100, 5)) * scale
    return SmoothedSpec(centers_A=centers[:, :4], centers_b=centers[:, 4],
                        sigma=sigma)


def test_normalize_caps_sigma_at_frozen_value():
    spec = normalize(_spec(sigma=1.0))
    assert spec.sigma == pytest.approx(sigma_cap(4, 100))
    norms = np.linalg.norm(np.column_stack([spec.centers_A, spec.centers_b]), axis=1)
    assert norms.max() <= 1.0 + 1e-12


def test_normalize_idempotent_and_scale_invariant():
    once = normalize(_spec())
    twice = normalize(once)
    assert np.allclose(once.centers_A, twice.centers_A)
    assert once.sigma == pytest.approx(twice.sigma)
    # row scaling of the smoothed model multiplies centers and sigma together
    doubled = normalize(_spec(scale=2.0, sigma=2.0))
    assert np.allclose(once.centers_A, doubled.centers_A, atol=1e-12)
    assert once.sigma == pytest.approx(doubled.sigma)


def test_normalize_rejects_zero_data():
    spec = SmoothedSpec(centers_A=np.zeros((5, 2)), centers_b=np.zeros(5), sigma=0.5)
    with pytest.raises(ValueError):
        normalize(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        SmoothedSpec(centers_A=np.eye(3), centers_b=np.zeros(3), sigma=0.0)
    with pytest.raises(ValueError):
        SmoothedSpec(centers_A=np.eye(3), centers_b=np.zeros(3), sigma=0.1)
    with pytest.raises(ValueError):
        SmoothedSpec(centers_A=np.ones((4, 2)), centers_b=np.zeros(3), sigma=0.1)


def test_sample_instance_bit_exact_determinism():
    spec = normalize(_spec())
    lp1 = sample_instance(spec, derive_rng(310))
    lp2 = sample_instance(spec, derive_rng(310))
    assert np.array_equal(lp1.A, lp2.A)
    assert np.array_equal(lp1.b, lp2.b)
    assert np.array_equal(lp1.z, lp2.z)


def test_random_spec_shapes_and_unit_scales():
    spec = random_spec(12, 3, 0.2, derive_rng(311))
    assert spec.centers_A.shape == (12, 3)
    assert spec.centers_b.shape == (12,)
    norms = np.linalg.norm(np.column_stack([spec.centers_A, spec.centers_b]), axis=1)
    assert np.allclose(norms, 1.0)
    assert np.linalg.norm(spec.objective) == pytest.approx(1.0)
    assert spec.sigma == 0.2


@settings(max_examples=60)
@given(n=st.integers(3, 200), d=st.integers(2, 12), seed=st.integers(0, 2 ** 63 - 1))
def test_random_spec_and_normalize_keep_the_bits_of_numpy_norm(n, d, seed):
    """random_spec's unit rows and objective and normalize's scale are
    numpy.linalg.norm's formula; the results are its bytes."""
    if n <= d:
        n = d + 1
    spec = random_spec(n, d, 5.0, derive_rng(seed))
    twin = derive_rng(seed)
    raw = gaussian(twin, (n, d + 1))
    centers = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    zraw = gaussian(twin, (d,))
    assert spec.centers_A.tobytes() == centers[:, :d].tobytes()
    assert spec.centers_b.tobytes() == centers[:, d].tobytes()
    assert spec.objective.tobytes() == (zraw / np.linalg.norm(zraw)).tobytes()
    # Rows of norm up to 3, so the first scale is not 1; sigma 5 makes the cap bind.
    spec = SmoothedSpec(spec.centers_A * 3.0, spec.centers_b, 5.0)
    rows = np.hstack([spec.centers_A, spec.centers_b[:, None]])
    scale = float(np.max(np.linalg.norm(rows, axis=1)))
    f = (5.0 / scale) / sigma_cap(d, n)
    got = normalize(spec)
    assert got.centers_A.tobytes() == (spec.centers_A / scale / f).tobytes()
    assert got.centers_b.tobytes() == (spec.centers_b / scale / f).tobytes()


def test_smoothed_points_draw_centres_then_noise():
    """The draw order the section experiments and the battery rely on:
    all n sphere centres first, then all n noise vectors."""
    points = smoothed_points(derive_rng(312), 40, 3, 0.2)
    twin = derive_rng(312)
    centers = gaussian(twin, (40, 3))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    assert np.array_equal(points, centers + gaussian(twin, (40, 3), sigma=0.2))
