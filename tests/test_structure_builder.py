"""Class distances, affinities, the eigensolver (numpy's LAPACK `eigh`,
checked against the repeated-squaring oracle), spectral embedding,
k-means, and end-to-end structure construction."""

import math

import numpy as np
import pytest

from hierfusion.exceptions import (
    DegeneratePoints,
    DimensionMismatch,
    EigensolverFailure,
    InvalidConfig,
    InvalidValue,
    IsolatedClass,
    NonFiniteValue,
    UnknownLabel,
)
from hierfusion.features import (
    FeatureTable,
    SyntheticSpec,
    class_statistics,
    generate_synthetic,
    train_test_split,
)
from hierfusion.structure_builder import (
    AffinityMatrix,
    SpectralEmbedding,
    _distinct_count,
    _repair_empty,
    adjusted_rand_index,
    affinity_matrix,
    build_visual_structure,
    class_distance_matrix,
    kmeans,
    spectral_embedding,
    symmetric_eigen,
)
from oracles import (
    class_distance,
    inertia_of,
    min_partition_inertia,
    squaring_eigensystem,
)


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


# -- class distances ----------------------------------------------------------

def test_class_distance_hand_values():
    assert class_distance([1.0, 2.0], 0.0, [1.0, 2.0], 0.0) == 0.0
    # means 2 apart, no spread
    assert class_distance([0.0], 0.0, [2.0], 0.0) == 2.0
    # means 2 apart, unit variance each side: sqrt(4 + 1 + 1)
    d = class_distance([0.0], 1.0, [2.0], 1.0)
    assert abs(d - math.sqrt(6.0)) < 1e-15
    # spread alone separates identical means
    assert abs(class_distance([3.0], 1.0, [3.0], 1.0) - math.sqrt(2.0)) < 1e-15


def test_class_distance_symmetry_and_shape_check():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    assert class_distance(a, 0.5, b, 1.5) == class_distance(b, 1.5, a, 0.5)
    with pytest.raises(DimensionMismatch):
        class_distance([1.0], 0.0, [1.0, 2.0], 0.0)


def test_class_distance_equals_mean_pairwise_distance():
    # dis^2 equals the average squared distance between one sample of each
    # class, computed here by the raw double loop over actual rows
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(24, 3)) * 2.0
    labels = np.arange(24) % 2
    stats = class_statistics(FeatureTable(features=feats, labels=labels,
                                          subclass_names=("a", "b")))
    d = class_distance(stats.means[0], stats.variances[0],
                       stats.means[1], stats.variances[1])
    xs, ys = feats[labels == 0], feats[labels == 1]
    total = 0.0
    for x in xs:
        for y in ys:
            diff = x - y
            total += float(diff @ diff)
    np.testing.assert_allclose(d * d, total / (len(xs) * len(ys)), rtol=1e-12)


def test_class_distance_matrix_layout():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(30, 4))
    labels = np.arange(30) % 3
    stats = class_statistics(FeatureTable(features=feats, labels=labels,
                                          subclass_names=("a", "b", "c")))
    dist = class_distance_matrix(stats)
    assert dist.shape == (3, 3)
    assert np.array_equal(dist, dist.T)
    assert np.all(np.diagonal(dist) == 0.0)
    expected = class_distance(stats.means[0], stats.variances[0],
                              stats.means[2], stats.variances[2])
    assert dist[0, 2] == expected


def test_class_distance_matrix_matches_pairwise_loop():
    # the batched rows do the same arithmetic as class_distance(i, j),
    # i < j, so both triangles equal the scalar function bit for bit
    rng = np.random.default_rng(8)
    for d in (1, 3, 64):
        stats = stats_for(rng.normal(size=(9, d)) * 4.0, rng.uniform(0.0, 2.0, 9))
        dist = class_distance_matrix(stats)
        for i in range(9):
            for j in range(i + 1, 9):
                expected = class_distance(stats.means[i], stats.variances[i],
                                          stats.means[j], stats.variances[j])
                assert dist[i, j] == dist[j, i] == expected


# -- affinity -----------------------------------------------------------------

def stats_for(means, variances):
    from hierfusion.features import ClassStats
    return ClassStats(means=np.asarray(means, dtype=np.float64),
                      variances=np.asarray(variances, dtype=np.float64))


def test_affinity_hand_values():
    # distance 2 with no spread
    a = affinity_matrix(stats_for([[0.0], [2.0]], [0.0, 0.0]))
    np.testing.assert_allclose(a.values[0, 1], math.exp(-2.0), rtol=1e-15)
    # distance sqrt(6): means 2 apart, unit variance each
    b = affinity_matrix(stats_for([[0.0], [2.0]], [1.0, 1.0]))
    np.testing.assert_allclose(b.values[0, 1], math.exp(-math.sqrt(6.0)),
                               rtol=1e-15)
    assert b.values[0, 0] == 0.0 and b.values[1, 1] == 0.0


def test_affinity_monotone_in_distance_and_delta():
    near = affinity_matrix(stats_for([[0.0], [1.0]], [0.0, 0.0]))
    far = affinity_matrix(stats_for([[0.0], [5.0]], [0.0, 0.0]))
    assert far.values[0, 1] < near.values[0, 1]
    wide = affinity_matrix(stats_for([[0.0], [5.0]], [0.0, 0.0]), delta=4.0)
    assert wide.values[0, 1] > far.values[0, 1]
    with pytest.raises(InvalidConfig):
        affinity_matrix(stats_for([[0.0], [1.0]], [0.0, 0.0]), delta=0.0)


@pytest.mark.parametrize("means, delta", [
    ([[-1e200], [1e200]], 1.0),  # the squared gap overflows
    ([[0.0], [1e10]], 1e-300),  # the distance over delta overflows
], ids=["gap", "quotient"])
def test_affinity_past_the_float64_range_is_zero_without_a_warning(means, delta):
    # the warnings filter turns numpy's overflow RuntimeWarning into an error
    affinity = affinity_matrix(stats_for(means, [0.0, 0.0]), delta=delta)
    assert affinity.values.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def test_affinity_matrix_validation():
    with pytest.raises(DimensionMismatch):
        AffinityMatrix(values=np.zeros((2, 3)))
    with pytest.raises(InvalidValue):
        AffinityMatrix(values=np.array([[0.0, 0.5], [0.4, 0.0]]))  # asymmetric
    with pytest.raises(InvalidValue):
        AffinityMatrix(values=np.array([[0.0, 1.5], [1.5, 0.0]]))  # out of range
    with pytest.raises(InvalidValue):
        AffinityMatrix(values=np.array([[0.1, 0.5], [0.5, 0.0]]))  # diagonal
    bad = np.zeros((2, 2))
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        AffinityMatrix(values=bad)
    with pytest.raises(InvalidValue):
        stats_for([[0.0], [1.0]], [0.0, -1.0])  # negative variance
    empty = affinity_matrix(stats_for(np.zeros((0, 2)), np.zeros(0)))
    assert empty.class_count == 0
    with pytest.raises(DimensionMismatch, match=r"\[1, 0\]"):
        spectral_embedding(empty, k=1)


def test_affinity_from_random_stats_is_well_formed():
    rng = np.random.default_rng(31)
    stats = stats_for(rng.normal(size=(6, 4)), rng.uniform(0.1, 2.0, size=6))
    a = affinity_matrix(stats).values
    assert np.array_equal(a, a.T)
    assert a.min() >= 0.0 and a.max() <= 1.0
    off = a[~np.eye(6, dtype=bool)]
    assert off.min() > 0.0  # exp never hits zero at finite distance


# -- eigensolver ---------------------------------------------------------------

def test_eigen_two_by_two_exact():
    values, vectors = symmetric_eigen([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(values, [3.0, 1.0], atol=1e-12)
    r = 1.0 / math.sqrt(2.0)
    np.testing.assert_allclose(vectors[:, 0], [r, r], atol=1e-12)
    np.testing.assert_allclose(vectors[:, 1], [r, -r], atol=1e-12)


def test_eigen_diagonal_matrix_is_exact():
    values, vectors = symmetric_eigen(np.diag([1.0, 5.0, 3.0]))
    assert values.tolist() == [5.0, 3.0, 1.0]
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.array_equal(vectors, expected)


def test_eigen_identity_keeps_stable_order():
    values, vectors = symmetric_eigen(np.eye(4))
    assert values.tolist() == [1.0] * 4
    assert np.array_equal(vectors, np.eye(4))


def test_eigen_matches_numpy_reference():
    rng = np.random.default_rng(17)
    for _ in range(15):
        n = int(rng.integers(2, 15))
        m = random_symmetric(rng, n)
        values, vectors = symmetric_eigen(m)
        ref = np.linalg.eigvalsh(m)[::-1]
        np.testing.assert_allclose(values, ref, atol=1e-10)
        # decomposition properties rather than vector-by-vector comparison
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(
            vectors @ np.diag(values) @ vectors.T, m, atol=1e-10
        )


def test_eigen_matches_squaring_oracle():
    rng = np.random.default_rng(29)
    for _ in range(5):
        n = int(rng.integers(2, 9))
        m = random_symmetric(rng, n)
        values, vectors = symmetric_eigen(m)
        ref_values, ref_vectors = squaring_eigensystem(m)
        np.testing.assert_allclose(values, ref_values, atol=1e-8)
        np.testing.assert_allclose(np.abs(vectors), np.abs(ref_vectors),
                                   atol=1e-6)


def test_eigen_residuals_are_small():
    rng = np.random.default_rng(40)
    m = random_symmetric(rng, 12)
    values, vectors = symmetric_eigen(m)
    for j in range(12):
        residual = m @ vectors[:, j] - values[j] * vectors[:, j]
        assert np.sqrt(residual @ residual) < 1e-9


def test_eigen_sign_convention():
    rng = np.random.default_rng(55)
    m = random_symmetric(rng, 9)
    _, vectors = symmetric_eigen(m)
    for j in range(9):
        lead = int(np.argmax(np.abs(vectors[:, j])))
        assert vectors[lead, j] > 0


def test_eigen_failure_and_shape_errors(monkeypatch):
    rng = np.random.default_rng(0)
    m = random_symmetric(rng, 30)

    def no_convergence(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(EigensolverFailure, match="did not converge"):
        symmetric_eigen(m)
    with pytest.raises(DimensionMismatch):
        symmetric_eigen(np.zeros((2, 3)))


def test_eigen_rejects_non_finite_input():
    with pytest.raises(NonFiniteValue):
        symmetric_eigen(np.full((3, 3), np.nan))
    with pytest.raises(NonFiniteValue):
        symmetric_eigen([[1.0, np.inf], [np.inf, 1.0]])


def test_eigen_of_size_zero_and_one():
    values, vectors = symmetric_eigen(np.zeros((0, 0)))
    assert values.shape == (0,) and vectors.shape == (0, 0)
    values, vectors = symmetric_eigen([[-2.5]])
    assert values.tolist() == [-2.5]
    assert vectors.tolist() == [[1.0]]


@pytest.mark.parametrize("n", [31, 64, 101])
def test_eigen_matches_numpy_reference_mid_size(n):
    m = random_symmetric(np.random.default_rng(n), n)
    values, vectors = symmetric_eigen(m)
    np.testing.assert_allclose(values, np.linalg.eigvalsh(m)[::-1], atol=1e-10)
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(vectors @ np.diag(values) @ vectors.T, m, atol=1e-10)


def test_eigen_on_200_class_normalized_affinity():
    spec = SyntheticSpec(superclass_count=10, subclasses_per_superclass=20,
                         samples_per_subclass=20, dim=64, seed=11)
    table, _ = generate_synthetic(spec)
    normalized = normalized_affinity(affinity_matrix(class_statistics(table)))
    values, vectors = symmetric_eigen(normalized)
    assert np.abs(normalized @ vectors - vectors * values).max() <= 1e-9
    np.testing.assert_allclose(vectors.T @ vectors, np.eye(200), atol=1e-10)


# -- test inputs ---------------------------------------------------------------

def normalized_affinity(affinity):
    inv_sqrt = 1.0 / np.sqrt(affinity.values.sum(axis=1))
    return affinity.values * inv_sqrt[:, None] * inv_sqrt[None, :]


def wide_table(seed, superclasses=10, per=20):
    """The induce-wide shape: 64-d, 20 samples a class, the 0.8 training side."""
    spec = SyntheticSpec(superclass_count=superclasses, subclasses_per_superclass=per,
                         samples_per_subclass=20, dim=64, superclass_separation=9.0,
                         subclass_separation=2.5, noise_scale=0.8, seed=seed)
    table, planted = generate_synthetic(spec)
    return train_test_split(table, 0.8, seed)[0], planted


# -- spectral embedding ---------------------------------------------------------

def two_block_affinity():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 0.8
    a[2, 3] = a[3, 2] = 0.6
    return AffinityMatrix(values=a)


def test_embedding_separates_exact_blocks():
    emb = spectral_embedding(two_block_affinity(), k=2)
    coords = emb.coords
    np.testing.assert_allclose(coords[0], coords[1], atol=1e-12)
    np.testing.assert_allclose(coords[2], coords[3], atol=1e-12)
    # rows of different blocks are orthogonal unit vectors
    assert abs(coords[0] @ coords[2]) < 1e-12
    norms = np.sqrt((coords * coords).sum(axis=1))
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_embedding_k1_connected_graph_is_constant():
    a = np.full((5, 5), 0.5)
    np.fill_diagonal(a, 0.0)
    emb = spectral_embedding(AffinityMatrix(values=a), k=1)
    np.testing.assert_allclose(emb.coords, 1.0, atol=1e-12)


def test_normalized_affinity_spectrum_bounded():
    rng = np.random.default_rng(13)
    stats = stats_for(rng.normal(size=(7, 3)), rng.uniform(0.1, 1.0, size=7))
    values, _ = symmetric_eigen(normalized_affinity(affinity_matrix(stats)))
    assert values.max() <= 1.0 + 1e-12
    assert values.min() >= -1.0 - 1e-12


def test_embedding_isolated_class_raises():
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 0.9  # class 2 disconnected
    with pytest.raises(IsolatedClass):
        spectral_embedding(AffinityMatrix(values=a), k=2)


def test_embedding_k_bounds():
    aff = two_block_affinity()
    with pytest.raises(DimensionMismatch, match=r"\[1, 4\]"):
        spectral_embedding(aff, k=5)
    with pytest.raises(DimensionMismatch):
        spectral_embedding(aff, k=0)


# -- k-means --------------------------------------------------------------------

def test_kmeans_worked_example():
    points = np.array([0.0, 0.1, 10.0, 10.1])
    assign = kmeans(points, 2, seed=0)
    assert assign[0] == assign[1]
    assert assign[2] == assign[3]
    assert assign[0] != assign[2]
    np.testing.assert_allclose(inertia_of(points, assign), 0.01, rtol=1e-12)


def test_kmeans_k_equals_n():
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assign = kmeans(points, 3, seed=0)
    assert sorted(assign.tolist()) == [0, 1, 2]
    assert inertia_of(points, assign) == 0.0


def test_kmeans_deterministic():
    rng = np.random.default_rng(91)
    points = rng.normal(size=(40, 2))
    a = kmeans(points, 4, seed=7)
    b = kmeans(points, 4, seed=7)
    assert np.array_equal(a, b)


def test_kmeans_reaches_global_optimum_on_small_cases():
    rng = np.random.default_rng(101)
    for _ in range(12):
        n = int(rng.integers(5, 9))
        d = int(rng.integers(1, 3))
        k = int(rng.integers(2, 4))
        points = rng.normal(size=(n, d))
        assign = kmeans(points, k, seed=3)
        best = min_partition_inertia(points, k)
        np.testing.assert_allclose(inertia_of(points, assign), best,
                                   rtol=1e-9, atol=1e-12)


def test_kmeans_every_cluster_nonempty():
    rng = np.random.default_rng(19)
    points = rng.normal(size=(25, 3))
    assign = kmeans(points, 6, seed=1)
    assert np.bincount(assign, minlength=6).min() >= 1
    assert assign.max() < 6 and assign.min() >= 0


def _own_distances(assign, own, k):
    """A (n, k) distance matrix whose entry for each point's own cluster is
    `own`; every other entry is larger, so no test reads it."""
    dist2 = np.full((len(assign), k), 100.0)
    dist2[np.arange(len(assign)), assign] = own
    return dist2


@pytest.mark.parametrize("assign, own, k, repaired", [
    # the empty cluster 2 takes point 1, the farthest from its own centre
    ([0, 0, 0, 1, 1], [1.0, 5.0, 3.0, 2.0, 4.0], 3, [0, 2, 0, 1, 1]),
    # points 0 and 2 tie: the lower index moves
    ([0, 0, 0, 1, 1], [5.0, 1.0, 5.0, 2.0, 2.0], 3, [2, 0, 0, 1, 1]),
    # point 2 is the farthest, but alone in cluster 1, so it stays
    ([0, 0, 1], [1.0, 2.0, 9.0], 3, [0, 2, 1]),
    # clusters 1 and 2 are both empty: each takes the farthest movable point
    ([0, 0, 0, 0], [1.0, 4.0, 2.0, 3.0], 3, [0, 1, 0, 2]),
], ids=["farthest", "tie-lower-index", "single-stays", "two-empty"])
def test_repair_empty_gives_each_empty_cluster_its_farthest_movable_point(
        assign, own, k, repaired):
    assign = np.array(assign)
    before = assign.copy()
    result = _repair_empty(assign, _own_distances(assign, own, k), k)
    assert result.tolist() == repaired
    assert np.bincount(result, minlength=k).min() >= 1
    assert np.array_equal(assign, before)


def test_kmeans_degenerate_inputs():
    with pytest.raises(DegeneratePoints):
        kmeans(np.zeros((3, 2)), 2, seed=0)  # 3 identical points
    with pytest.raises(DegeneratePoints):
        kmeans(np.array([[0.0], [1.0]]), 3, seed=0)  # k > n
    with pytest.raises(DegeneratePoints):
        kmeans(np.array([[0.0], [1.0]]), 0, seed=0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [1, 3])
def test_distinct_count_is_the_count_of_unique_rows(seed, dim):
    rng = np.random.default_rng(seed)
    points = rng.integers(-1, 2, size=(30, dim)) * rng.choice([-1.0, 1.0], (30, dim))
    assert np.signbit(points[points == 0.0]).any()  # -0.0 counts as 0.0
    assert _distinct_count(points) == np.unique(points, axis=0).shape[0]


def test_kmeans_counts_signed_zeros_as_one_point():
    with pytest.raises(DegeneratePoints, match="fewer than k=3 distinct points"):
        kmeans(np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]]), 3)
    with pytest.raises(DegeneratePoints, match="fewer than k=2 distinct points"):
        kmeans(np.zeros((3, 0)), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_and_coords_are_refused(bad):
    with pytest.raises(NonFiniteValue):
        kmeans(np.array([[0.0], [1.0], [bad]]), 2)
    coords = np.array([[1.0, 0.0], [0.0, 1.0], [bad, 0.0]])
    with pytest.raises(NonFiniteValue):
        SpectralEmbedding(coords=coords, k=2)


# -- end-to-end construction -----------------------------------------------------

def planted_table():
    spec = SyntheticSpec(superclass_count=2, subclasses_per_superclass=2,
                         samples_per_subclass=30, dim=6,
                         superclass_separation=12.0, subclass_separation=2.0,
                         noise_scale=0.3, seed=5)
    return generate_synthetic(spec)


def test_build_recovers_planted_grouping():
    table, planted = planted_table()
    built = build_visual_structure(table, k=2, seed=0)
    ari = adjusted_rand_index(built.parent_index, planted.parent_index)
    assert ari == 1.0
    assert built.name == "H_A_k2"
    assert built.superclasses == ("s0", "s1")
    assert built.subclass_names == ("c0", "c1", "c2", "c3")


def test_build_accepts_custom_names():
    table, _ = planted_table()
    renamed = FeatureTable(table.features, table.labels, ("w", "x", "y", "z"))
    built = build_visual_structure(renamed, k=2, seed=0)
    assert built.name == "H_A_k2"
    assert built.subclass_names == ("w", "x", "y", "z")
    with pytest.raises(UnknownLabel):
        FeatureTable(table.features, table.labels, ("only", "two"))


def test_build_is_sample_order_invariant():
    table, _ = planted_table()
    rng = np.random.default_rng(2)
    perm = rng.permutation(table.count)
    shuffled = FeatureTable(features=table.features[perm],
                            labels=table.labels[perm],
                            subclass_names=table.subclass_names)
    assert build_visual_structure(table, k=2, seed=0) == \
        build_visual_structure(shuffled, k=2, seed=0)


def test_build_k_bound_error_names_the_limit():
    table, _ = planted_table()
    with pytest.raises(DimensionMismatch, match=r"\[1, 4\]"):
        build_visual_structure(table, k=9)


def test_build_k_equals_class_count():
    table, _ = planted_table()
    built = build_visual_structure(table, k=4, seed=0)
    assert built.superclass_count == 4
    assert sorted(built.parent_index.tolist()) == [0, 1, 2, 3]


def full_spectrum_assignment(table, k, seed):
    """k-means on the leading k eigenvectors from the squaring oracle."""
    matrix = normalized_affinity(affinity_matrix(class_statistics(table)))
    coords = squaring_eigensystem(matrix, count=k)[1]
    return kmeans(coords / np.sqrt((coords * coords).sum(axis=1))[:, None], k, seed)


@pytest.mark.parametrize("seed", range(1, 13))
def test_build_partition_equals_the_full_spectrum_one(seed):
    table, _ = wide_table(seed)
    built = build_visual_structure(table, k=10, seed=seed)
    assert np.array_equal(built.parent_index, full_spectrum_assignment(table, 10, seed))
    spec = SyntheticSpec(superclass_count=4, subclasses_per_superclass=5,
                         samples_per_subclass=100, dim=16, superclass_separation=10.0,
                         subclass_separation=3.0, noise_scale=1.0, seed=seed)
    table, _ = generate_synthetic(spec)
    built = build_visual_structure(table, 4, 1.0, seed)
    assert np.array_equal(built.parent_index, full_spectrum_assignment(table, 4, seed))


def test_build_recovers_a_1000_class_partition():
    spec = SyntheticSpec(superclass_count=50, subclasses_per_superclass=20,
                         samples_per_subclass=20, dim=64, superclass_separation=9.0,
                         subclass_separation=2.5, noise_scale=0.8, seed=1)
    table, planted = generate_synthetic(spec)
    built = build_visual_structure(table, k=50, seed=1)
    assert adjusted_rand_index(built.parent_index, planted.parent_index) == 1.0


# -- adjusted Rand index ----------------------------------------------------------

def test_ari_identical_and_relabeled():
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0
    assert adjusted_rand_index([1], [0]) == 1.0


def test_ari_hand_value():
    # crossing partitions of 4 points: no co-clustered pair survives
    np.testing.assert_allclose(
        adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]), -0.5, rtol=1e-12
    )


def test_ari_single_cluster_is_chance_level():
    assert adjusted_rand_index([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_ari_random_labelings_score_near_zero():
    rng = np.random.default_rng(77)
    vals = []
    for _ in range(20):
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 3, size=50)
        vals.append(adjusted_rand_index(a, b))
    assert max(abs(v) for v in vals) < 0.3
    assert abs(float(np.mean(vals))) < 0.1


def test_ari_shape_errors():
    with pytest.raises(DimensionMismatch):
        adjusted_rand_index([0, 1], [0, 1, 2])
    with pytest.raises(DimensionMismatch):
        adjusted_rand_index([], [])


@pytest.mark.parametrize("labels", [[None, 1], [[1, 2], [3]]], ids=["none", "ragged"])
def test_ari_labels_must_be_an_array_of_comparable_values(labels):
    with pytest.raises(InvalidValue, match="comparable"):
        adjusted_rand_index(labels, [1, 2])
