"""Visual label-structure construction from class statistics.

Pipeline: per-class statistics -> pairwise class distances -> affinity
matrix -> normalized spectral embedding -> k-means -> a 3-level structure
whose superclasses are the clusters.

The squared class distance is ||Q_i - Q_j||^2 + var_i + var_j (mean
vectors plus scalar trace variances), i.e. the expected squared distance
between independent samples of the two classes. The affinity is
exp(-dis / delta) with the distance, not its square, and a zero diagonal.

Every stage is deterministic given its seed. `symmetric_eigen` is
numpy's LAPACK `eigh` with a fixed order (eigenvalues descending, stable
on ties) and a fixed sign (each eigenvector's largest-magnitude component
positive); the spectral embedding takes its leading k columns. The test
suite checks it against an independent repeated-squaring eigensolver.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import config_int, config_real, config_seed, frozen_array, type_fields
from .exceptions import (
    DegeneratePoints,
    DimensionMismatch,
    EigensolverFailure,
    InvalidConfig,
    InvalidValue,
    IsolatedClass,
    NonFiniteValue,
)
from .features import ClassStats, FeatureTable, class_statistics
from .rng import derive_seed, rng_from_seed
from .taxonomy import LabelStructure


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Symmetric class-pair similarities in [0, 1] with a zero diagonal."""

    values: Annotated[np.ndarray, frozen_array(np.float64, 2)]

    def __post_init__(self):
        type_fields(self)
        values = self.values
        if values.shape[0] != values.shape[1]:
            raise DimensionMismatch("affinity matrix must be square")
        if not np.all(np.isfinite(values)):
            raise NonFiniteValue("affinity matrix contains non-finite entries")
        if not np.array_equal(values, values.T):
            raise InvalidValue("affinity matrix must be symmetric")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise InvalidValue("affinity entries must lie in [0, 1]")
        if np.any(np.diagonal(values) != 0.0):
            raise InvalidValue("affinity diagonal must be zero")

    @property
    def class_count(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralEmbedding:
    """Unit-norm rows of the top-k eigenvectors of the normalized affinity."""

    coords: Annotated[np.ndarray, frozen_array(np.float64, 2)]
    k: Annotated[int, config_int]

    def __post_init__(self):
        type_fields(self)
        if not np.all(np.isfinite(self.coords)):
            raise NonFiniteValue("embedding coords contain NaN or infinity")
        if self.coords.shape[1] != self.k:
            raise DimensionMismatch("coords must be an (N, k) matrix")
        if self.k > self.coords.shape[0]:
            raise DimensionMismatch("k cannot exceed the class count")
        norms = np.sqrt((self.coords * self.coords).sum(axis=1))
        if norms.size and (norms.min() <= 0.0 or np.abs(norms - 1.0).max() > 1e-9):
            raise IsolatedClass("embedding rows must have unit norm")


def class_distance_matrix(stats: ClassStats) -> np.ndarray:
    """All pairwise class distances, exactly symmetric with zero diagonal.

    dis_ij = sqrt(||Q_i - Q_j||^2 + var_i + var_j). One batched step per
    row: each squared mean gap is a per-pair dot product, and only O(C * d)
    memory is live. A distance past the float64 range is infinity, and so
    an affinity of 0, without a warning.
    """
    n = stats.class_count
    means, variances = stats.means, stats.variances
    dist = np.zeros((n, n))
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            diff = means[i + 1:] - means[i]
            gap = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
            dist[i, i + 1:] = dist[i + 1:, i] = np.sqrt(
                gap + variances[i] + variances[i + 1:]
            )
    return dist


def affinity_matrix(stats: ClassStats, delta: float = 1.0) -> AffinityMatrix:
    """exp(-dis_ij / delta) off the diagonal, 0 on it.

    `delta` is the self-tuning scale of the exponential kernel; the
    default 1 follows the construction this pipeline reproduces.
    """
    delta = config_real(delta, "delta")
    if delta <= 0:
        raise InvalidConfig(f"delta must be > 0, got {delta!r}")
    dist = class_distance_matrix(stats)
    with np.errstate(over="ignore"):  # a quotient past float64 is an affinity of 0
        values = np.exp(-dist / delta)
    np.fill_diagonal(values, 0.0)
    return AffinityMatrix(values=values)


def symmetric_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by LAPACK `eigh`.

    The input is symmetrised as (A + A^T) / 2. Returns (eigenvalues,
    eigenvectors) with eigenvalues descending (stable order on ties) and
    eigenvectors as matching columns, each sign-fixed so its
    largest-magnitude component is positive. Entries that are not numbers
    raise InvalidValue, NaN or infinite ones NonFiniteValue, and a LAPACK
    failure to converge EigensolverFailure.
    """
    a = frozen_array(np.float64)(matrix, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix contains NaN or infinite entries")
    try:
        values, vectors = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as error:
        raise EigensolverFailure(f"eigh failed (n={a.shape[0]}): {error}") from None
    order = np.argsort(-values, kind="stable")
    return values[order], _lead_positive(vectors[:, order])


def _lead_positive(vectors: np.ndarray) -> np.ndarray:
    """The columns of `vectors`, each negated where its largest-magnitude
    component (the first, on ties) is negative."""
    if vectors.size == 0:
        return vectors
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(lead < 0.0, -vectors, vectors)


def spectral_embedding(affinity: AffinityMatrix, k: int) -> SpectralEmbedding:
    """Top-k eigenvectors of D^{-1/2} A D^{-1/2}, rows normalized to unit length.

    The eigenvectors are the leading k columns of `symmetric_eigen`, each
    sign-fixed so its largest-magnitude component is positive.
    """
    n, k = affinity.class_count, config_int(k, "k")
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k must lie in [1, {n}], got {k}")
    degrees = affinity.values.sum(axis=1)
    if degrees.min() <= 0.0:
        isolated = np.flatnonzero(degrees <= 0.0)
        raise IsolatedClass(f"classes with zero affinity degree: {isolated.tolist()}")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    normalized = affinity.values * inv_sqrt[:, None] * inv_sqrt[None, :]
    coords = symmetric_eigen(normalized)[1][:, :k]
    norms = np.sqrt((coords * coords).sum(axis=1))
    if norms.min() <= 0.0:
        raise IsolatedClass("a class has a zero-norm embedding row")
    return SpectralEmbedding(coords=coords / norms[:, None], k=k)


_KMEANS_RESTARTS = 10
_KMEANS_MAX_ITER = 300  # Lloyd steps per restart


def kmeans(points, k: int, seed: int = 0) -> np.ndarray:
    """Lloyd's algorithm, best of `_KMEANS_RESTARTS` seeded greedy
    initializations.

    Each restart picks a random first center, then greedily adds the point
    farthest from the chosen centers. Iteration stops when assignments
    stabilize; empty clusters steal the point farthest from its center.
    Ties (distances, restarts) resolve toward the lower index. Returns the
    assignment with the lowest inertia; every cluster is non-empty.
    """
    k, seed = config_int(k, "k"), config_seed(seed, "seed")
    pts = frozen_array(np.float64)(points, "k-means points")
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2:
        raise DimensionMismatch(f"k-means points must be 1-D or 2-D, got {pts.ndim}-D")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteValue("k-means points contain NaN or infinity")
    n = pts.shape[0]
    if k < 1 or k > n:
        raise DegeneratePoints(f"need 1 <= k <= {n} points, got k={k}")
    if _distinct_count(pts) < k:
        raise DegeneratePoints(f"fewer than k={k} distinct points")

    best_assign, best_inertia = None, np.inf
    for restart in range(_KMEANS_RESTARTS):
        rng = rng_from_seed(derive_seed(seed, restart))
        first = int(rng.integers(n))
        center_ids = [first]
        nearest = ((pts - pts[first]) ** 2).sum(axis=1)
        while len(center_ids) < k:
            far = int(np.argmax(nearest))
            center_ids.append(far)
            nearest = np.minimum(nearest, ((pts - pts[far]) ** 2).sum(axis=1))
        centers = pts[center_ids].copy()

        assign = None
        for _ in range(_KMEANS_MAX_ITER):
            dist2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_assign = dist2.argmin(axis=1)
            new_assign = _repair_empty(new_assign, dist2, k)
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            for j in range(k):
                centers[j] = pts[assign == j].mean(axis=0)
        diff = pts - centers[assign]
        inertia = float((diff * diff).sum())
        if inertia < best_inertia:
            best_inertia, best_assign = inertia, assign
    return best_assign


def _distinct_count(pts: np.ndarray) -> int:
    """How many distinct rows the finite (n, d) `pts` hold, n >= 1, equal
    rows compared by ``==`` (-0.0 equals 0.0): 1 plus the rows that differ
    from the row before them in lexicographic order, the count
    ``np.unique(pts, axis=0)`` gives without importing numpy.ma."""
    if pts.shape[1] == 0:
        return 1
    ranked = pts[np.lexsort(pts.T[::-1])]
    return 1 + int(np.count_nonzero((ranked[1:] != ranked[:-1]).any(axis=1)))


def _repair_empty(assign: np.ndarray, dist2: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the point farthest from its current center
    (the lower index on a tie) among the points whose cluster keeps another
    member. kmeans refuses k > n, so while a cluster is empty the n >= k
    points fill at most k - 1 clusters and one of them holds two or more."""
    counts = np.bincount(assign, minlength=k)
    empty = np.flatnonzero(counts == 0).tolist()
    if not empty:
        return assign
    assign = assign.copy()
    for j in empty:
        own = dist2[np.arange(assign.size), assign]
        movable = counts[assign] > 1
        candidate = int(np.argmax(np.where(movable, own, -np.inf)))
        counts[assign[candidate]] -= 1
        counts[j] += 1
        assign[candidate] = j
    return assign


def build_visual_structure(
    table: FeatureTable, k: int, delta: float = 1.0, seed: int = 0, rows=None
) -> LabelStructure:
    """Cluster classes by feature affinity into the structure "H_A_k{k}".

    Composes class_statistics -> affinity_matrix -> spectral_embedding ->
    kmeans over the table's subclass name table; superclass m (named
    "s{m}") holds exactly the classes of cluster m. Only the table's rows
    `rows` are read, or all of them with None (see class_statistics).
    """
    stats = class_statistics(table, rows)
    affinity = affinity_matrix(stats, delta)
    embedding = spectral_embedding(affinity, k)
    assign = kmeans(embedding.coords, k, seed=seed)
    return LabelStructure(
        name=f"H_A_k{k}",
        superclasses=tuple(f"s{j}" for j in range(k)),
        subclass_names=table.subclass_names,
        parent_index=assign,
    )


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected partition agreement; 1.0 iff identical partitions.
    Labels that are not an array of comparable values are InvalidValue."""
    try:
        a_ids, b_ids = (np.unique(np.asarray(labels).ravel(), return_inverse=True)[1]
                        for labels in (labels_a, labels_b))
    except (TypeError, ValueError):
        raise InvalidValue("labels must be an array of comparable values") from None
    if a_ids.shape != b_ids.shape or a_ids.size == 0:
        raise DimensionMismatch("label vectors must be non-empty and equal length")
    if a_ids.size == 1:
        return 1.0
    contingency = np.zeros((a_ids.max() + 1, b_ids.max() + 1), dtype=np.int64)
    np.add.at(contingency, (a_ids, b_ids), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(contingency.astype(np.float64)).sum()
    sum_rows = comb2(contingency.sum(axis=1).astype(np.float64)).sum()
    sum_cols = comb2(contingency.sum(axis=0).astype(np.float64)).sum()
    total = comb2(float(a_ids.size))
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
