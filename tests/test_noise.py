import numpy as np
import pytest

from spdelab.lattice import make_grid
from spdelab.noise import (
    SeedDerivation,
    philox_keys,
    sample_sheet_expansion,
)

# Frozen test vectors for the documented seed derivation
# (master, replica, stream) -> first three standard normal draws.
SEED_VECTORS = {
    (0, 0, 0): (1.2918689310096432, -0.22764034777211475, 0.8700550434598191),
    (12345, 0, 0): (-0.21531797700845204, 1.4096812575940947, 1.5308414550566569),
    (12345, 1, 0): (0.064977660927470982, -0.51767891410469657, 0.2463819673723244),
    (12345, 0, 1): (1.4936855614391027, 1.6810530103852697, 0.35233752635065368),
    (2**63, 7, 3): (-0.2938681024424471, -1.4313840047348556, -0.28334409514822839),
}


def numpy_stream(master, replica, stream):
    """numpy's own generator for the documented derivation of (master, replica, stream)."""
    seq = np.random.SeedSequence(entropy=master & (2**64 - 1), spawn_key=(replica, stream))
    return np.random.Generator(np.random.Philox(seq))


def test_seed_derivation_vectors():
    for key, expected in SEED_VECTORS.items():
        draws = numpy_stream(*key).standard_normal(3)
        assert np.array_equal(draws, np.array(expected))


def test_sheet_expansion_draws_the_frozen_stream():
    # nx = 4 gives 3 modes and one step of dt = 1, so sqrt(dt) is exact.
    grid = make_grid(4, 1, 1.0)
    for key, expected in SEED_VECTORS.items():
        noise = sample_sheet_expansion(grid, 3, *key)
        assert noise.seed_info == SeedDerivation(*key)
        assert noise.mode_increments.tobytes() == np.array([expected]).tobytes()


# philox_keys reimplements numpy's SeedSequence; these pin it to numpy's own
# for masters of one and two words, the largest and a negative (masked) one,
# replicas on both sides of 2**32 (one and two spawn-key words) and a stream
# of two words.
@pytest.mark.parametrize("master", [0, 90125, 2**40 + 3, 2**64 - 1, -5])
@pytest.mark.parametrize("stream", [0, 3, 2**33 + 5])
def test_philox_keys_match_seed_sequence(master, stream):
    for replicas in (range(0, 6), range(2**32 - 2, 2**32 + 2), range(2**40, 2**40 + 2)):
        keys = philox_keys(master, replicas, stream)
        expected = [
            np.random.SeedSequence(entropy=master & (2**64 - 1), spawn_key=(r, stream))
            .generate_state(2, np.uint64)
            for r in replicas
        ]
        assert keys.dtype == np.uint64 and keys.shape == (len(replicas), 2)
        assert keys.tobytes() == np.array(expected, dtype=np.uint64).tobytes()


def test_philox_key_draws_the_frozen_stream():
    for (master, replica, stream), expected in SEED_VECTORS.items():
        key = philox_keys(master, range(replica, replica + 1), stream)[0]
        draws = np.random.Generator(np.random.Philox(key=key)).standard_normal(3)
        assert np.array_equal(draws, np.array(expected))


def test_same_seed_bit_identical():
    g = make_grid(16, 32, 0.5)
    a = sample_sheet_expansion(g, g.n_interior, 42)
    b = sample_sheet_expansion(g, g.n_interior, 42)
    assert np.array_equal(a.mode_increments, b.mode_increments)
    assert np.array_equal(a.white_increments, b.white_increments)


def test_distinct_streams_differ():
    g = make_grid(16, 8, 0.5)
    base = sample_sheet_expansion(g, g.n_interior, 42).mode_increments
    for rep, stream in ((1, 0), (0, 1), (2, 5)):
        other = sample_sheet_expansion(g, g.n_interior, 42, replica=rep, stream=stream)
        assert not np.array_equal(base, other.mode_increments)


def test_white_increment_variance():
    # 10^5 cell increments across replicas: empirical variance within 3 SE.
    g = make_grid(21, 50, 0.5)
    draws = np.concatenate(
        [
            sample_sheet_expansion(g, g.n_interior, 7, replica=r).white_increments.ravel()
            for r in range(100)
        ]
    )
    n = draws.size
    assert n == 100000
    var = np.var(draws)
    target = g.dt * g.dx
    assert abs(var - target) <= 3 * target * np.sqrt(2.0 / n)


def test_sheet_covariance():
    # E[W(t1,x1) W(t2,x2)] = min(t1,t2) min(x1,x2) at node points.
    g = make_grid(8, 10, 1.0)
    reps = 4000
    w1 = np.empty(reps)
    w2 = np.empty(reps)
    for r in range(reps):
        nz = sample_sheet_expansion(g, g.n_interior, 99, replica=r)
        # W(t_m, x) sums the cells left of x: x = j / nx on nx = 8.
        w1[r] = np.sum(nz.white_increments[:4, :4])  # t=0.4, x=0.5
        w2[r] = np.sum(nz.white_increments[:8, :6])  # t=0.8, x=0.75
    target = 0.4 * 0.5
    cov = np.mean(w1 * w2)
    # Var(W1*W2) for jointly Gaussian factors.
    var_prod = np.var(w1 * w2)
    assert abs(cov - target) <= 3 * np.sqrt(var_prod / reps)


def test_sheet_expansion_zero_modes():
    g = make_grid(16, 8, 0.5)
    nz = sample_sheet_expansion(g, 0, 5)
    assert np.array_equal(nz.spatial_density, np.zeros((8, 15)))
    assert np.array_equal(nz.white_increments, np.zeros((8, 15)))


def test_sheet_corner_variance_matches_partial_sum():
    # Var W(1,1) = sum_{i<=K} h_i(1)^2 for the truncated expansion.
    g = make_grid(128, 16, 1.0)
    K = 64
    reps = 3000
    vals = np.empty(reps)
    for r in range(reps):
        nz = sample_sheet_expansion(g, K, 1234, replica=r)
        # W(T, 1) = sum_i h_i(1) * w_i(T)
        h1 = np.sqrt(2) * (1 - np.cos(np.arange(1, K + 1) * np.pi)) / (np.arange(1, K + 1) * np.pi)
        vals[r] = h1 @ nz.mode_increments[:, :K].sum(axis=0)
    target = (h1 @ h1) * g.T
    var = np.var(vals)
    assert abs(var - target) <= 3 * target * np.sqrt(2.0 / reps)


def test_nested_coupling_exact():
    g = make_grid(128, 16, 0.5)
    big = sample_sheet_expansion(g, 64, 2020)
    small = sample_sheet_expansion(g, 16, 2020)
    white = sample_sheet_expansion(g, g.n_interior, 2020)
    for nz, k in ((big, 64), (small, 16)):
        assert np.array_equal(nz.mode_increments[:, :k], white.mode_increments[:, :k])
        assert not np.any(nz.mode_increments[:, k:])


def test_mode_white_consistency():
    # A realization assembled from all nx-1 modes has i.i.d. cell increments
    # of variance dt*dx; check a cross-cell covariance vanishes too.
    g = make_grid(16, 64, 0.5)
    reps = 200
    cells = np.stack(
        [
            sample_sheet_expansion(g, g.n_interior, 31, replica=r).white_increments
            for r in range(reps)
        ]
    )
    flat = cells.reshape(reps * g.nt, g.n_interior)
    target = g.dt * g.dx
    var = flat.var(axis=0)
    se = target * np.sqrt(2.0 / (reps * g.nt))
    assert np.all(np.abs(var - target) <= 3 * se)
    cross = np.mean(flat[:, 0] * flat[:, 7])
    assert abs(cross) <= 3 * target / np.sqrt(reps * g.nt)


def test_seed_derivation_is_pure():
    g = make_grid(16, 8, 0.5)
    a = sample_sheet_expansion(g, 5, 9, 2, 1).mode_increments
    b = sample_sheet_expansion(g, 5, 9, 2, 1).mode_increments
    expected = numpy_stream(9, 2, 1).standard_normal((g.nt, g.n_interior)) * np.sqrt(g.dt)
    assert a.tobytes() == b.tobytes()
    assert a[:, :5].tobytes() == expected[:, :5].tobytes()
    assert not np.any(a[:, 5:])
    assert not a.flags.writeable


def test_invalid_inputs():
    g = make_grid(16, 8, 0.5)
    with pytest.raises(ValueError, match="k_noise"):
        sample_sheet_expansion(g, -1, 0)
    # numpy's SeedSequence rejects a negative spawn key; so does the derivation.
    with pytest.raises(ValueError, match="stream"):
        sample_sheet_expansion(g, 3, 0, stream=-1)
    with pytest.raises(ValueError, match="stream"):
        philox_keys(0, range(4), -1)
    with pytest.raises(OverflowError):
        philox_keys(0, range(-1, 2), 0)
