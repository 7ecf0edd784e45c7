"""Visual label-structure construction from class statistics.

Pipeline: per-class statistics -> pairwise class distances -> affinity
matrix -> normalized spectral embedding -> k-means -> a 3-level structure
whose superclasses are the clusters.

The squared class distance is ||Q_i - Q_j||^2 + var_i + var_j (mean
vectors plus scalar trace variances), i.e. the expected squared distance
between independent samples of the two classes. The affinity is
exp(-dis / delta) with the distance, not its square, and a zero diagonal.

Every stage is deterministic given its seed. The eigensolver is a Jacobi
rotation scheme in the round-robin (Brent-Luk) pair ordering, which
applies each round's disjoint rotations as one array update, with a
declared convergence threshold, so results are reproducible across
platforms and reimplementations.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import frozen_array, type_fields
from .exceptions import (
    DegeneratePoints,
    DimensionMismatch,
    EigensolverFailure,
    EmptyCluster,
    IsolatedClass,
    NonFiniteValue,
)
from .features import ClassStats, FeatureTable, class_statistics
from .rng import derive_seed, rng_from_seed
from .taxonomy import LabelStructure, validate_structure


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric class-pair similarities in [0, 1] with a zero diagonal."""

    values: Annotated[np.ndarray, frozen_array(np.float64, 2)]

    def __post_init__(self):
        type_fields(self)
        values = self.values
        if values.shape[0] != values.shape[1]:
            raise DimensionMismatch("affinity matrix must be square")
        if not np.all(np.isfinite(values)):
            raise ValueError("affinity matrix contains non-finite entries")
        if not np.array_equal(values, values.T):
            raise ValueError("affinity matrix must be symmetric")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("affinity entries must lie in [0, 1]")
        if np.any(np.diagonal(values) != 0.0):
            raise ValueError("affinity diagonal must be zero")

    @property
    def class_count(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SpectralEmbedding:
    """Unit-norm rows of the top-k eigenvectors of the normalized affinity."""

    coords: Annotated[np.ndarray, frozen_array(np.float64, 2)]
    k: int

    def __post_init__(self):
        type_fields(self)
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
    memory is live.
    """
    n = stats.class_count
    means, variances = stats.means, stats.variances
    dist = np.zeros((n, n))
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
    if delta <= 0:
        raise ValueError("delta must be > 0")
    dist = class_distance_matrix(stats)
    values = np.exp(-dist / float(delta))
    np.fill_diagonal(values, 0.0)
    return AffinityMatrix(values=values)


def _round_robin_schedule(n: int) -> np.ndarray:
    """Slot layout of each round of one round-robin (Brent-Luk) sweep.

    Row r is a permutation of range(m), m = n rounded up to even, whose
    slots 2k and 2k+1 hold the k-th pair (p, q), p < q, of round r. The
    pairing is the circle method: index m-1 stays put and meets r, while
    (r + i) mod (m-1) meets (r - i) mod (m-1) for i = 1..m/2-1, so each
    unordered pair meets exactly once in the m-1 rounds. For odd n, index
    m-1 = n is a dummy and whoever it meets sits the round out; n = 0 has
    one empty round.
    """
    m = n + n % 2
    if m == 0:
        return np.zeros((1, 0), dtype=np.intp)
    r = np.arange(m - 1)[:, None]
    i = np.arange(1, m // 2)[None, :]
    first = np.hstack([r, (r + i) % (m - 1)])
    second = np.hstack([np.full_like(r, m - 1), (r - i) % (m - 1)])
    order = np.empty((m - 1, m), dtype=np.intp)
    order[:, 0::2] = np.minimum(first, second)
    order[:, 1::2] = np.maximum(first, second)
    return order


def _rotation_phases(app, aqq, apq) -> np.ndarray:
    """c + i*s of the Jacobi rotation that zeroes each pair's apq.

    t is the smaller root of t^2 + 2*theta*t - 1 = 0, theta =
    (aqq - app) / (2 apq); theta == 0 takes t = 1 and apq == 0 skips the
    rotation (c = 1, s = 0).
    """
    skip = apq == 0.0
    theta = (aqq - app) / np.where(skip, 1.0, 2.0 * apq)
    t = 1.0 / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    np.negative(t, out=t, where=theta < 0.0)
    t[skip] = 0.0
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c + 1j * (t * c)


def _rotate_column_pairs(x: np.ndarray, phase: np.ndarray) -> None:
    """Rotate columns (2k, 2k+1) of a C-contiguous x in place by phase[k].

    Each row's pair (u, v) read as u + i*v makes the rotation
    (c*u - s*v, s*u + c*v) the complex product with c + i*s, so every
    pair of every row turns in one multiply.
    """
    pairs = x.view(np.complex128)
    pairs *= phase


def symmetric_eigen(
    matrix, *, tol: float = 1e-10, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Each sweep visits every index pair once, in the round-robin order of
    Brent & Luk (1985): n-1 rounds (n for odd n) of disjoint pairs, and
    the rotations of one round are applied together. Returns (eigenvalues,
    eigenvectors) with eigenvalues descending (stable order on ties) and
    eigenvectors as matching columns, each sign-fixed so its
    largest-magnitude component is positive. Converges when the
    off-diagonal Frobenius norm falls below `tol` times the matrix scale;
    exceeding `max_sweeps` raises EigensolverFailure. NaN or infinite
    entries raise NonFiniteValue.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix contains NaN or infinite entries")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    scale = np.sqrt((a * a).sum())
    threshold = tol * max(scale, 1e-300)

    layout = _round_robin_schedule(n)
    rounds, m = layout.shape
    slot = np.argsort(layout, axis=1)  # slot[r, i]: where round r seats index i
    next_slot = np.roll(slot, -1, axis=0)  # the last round hands over to round 0
    # step[r, j]: round r's slot of the index that the next round seats at j
    step = np.take_along_axis(slot, np.roll(layout, -1, axis=0), axis=1)
    p_next = np.take_along_axis(next_slot, layout[:, 0::2], axis=1)
    q_next = np.take_along_axis(next_slot, layout[:, 1::2], axis=1)
    # The matrix is kept in the current round's layout on both axes, the
    # eigenvectors on their columns; an odd n adds a zero dummy row and
    # column, whose rotations (apq == 0) are exact identities.
    padded = np.zeros((m, m))
    padded[:n, :n] = a
    a = np.ascontiguousarray(padded[layout[0]][:, layout[0]])
    vectors = np.eye(m).take(layout[0], axis=1)

    converged = False
    for _ in range(max_sweeps):
        off = a - np.diag(np.diagonal(a))
        if np.sqrt((off * off).sum()) <= threshold:
            converged = True
            break
        for r in range(rounds):
            diag = a.diagonal()
            phase = _rotation_phases(diag[0::2], diag[1::2], a.diagonal(1)[0::2])
            # Column update, then the row update as a column update of the
            # transpose; each transposing copy also moves one axis to the
            # next round's layout.
            _rotate_column_pairs(a, phase)
            _rotate_column_pairs(vectors, phase)
            a = np.ascontiguousarray(a.T[step[r]])
            _rotate_column_pairs(a, phase)
            a = np.ascontiguousarray(a.T[step[r]])
            a[p_next[r], q_next[r]] = 0.0
            a[q_next[r], p_next[r]] = 0.0
            vectors = vectors.take(step[r], axis=1)
    if not converged:
        off = a - np.diag(np.diagonal(a))
        if np.sqrt((off * off).sum()) > threshold:
            raise EigensolverFailure(
                f"no convergence within {max_sweeps} sweeps (n={n})"
            )

    back = slot[0, :n]  # from round 0's layout to index order, dummy dropped
    eigenvalues = np.diagonal(a)[back]
    vectors = vectors[:n][:, back]
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    for j in range(n):
        lead = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[lead, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return eigenvalues, vectors


def spectral_embedding(affinity: AffinityMatrix, k: int) -> SpectralEmbedding:
    """Top-k eigenvectors of D^{-1/2} A D^{-1/2}, rows normalized to unit length."""
    n = affinity.class_count
    if not 1 <= k <= n:
        raise DimensionMismatch(f"k must lie in [1, {n}], got {k}")
    degrees = affinity.values.sum(axis=1)
    if degrees.min() <= 0.0:
        isolated = np.flatnonzero(degrees <= 0.0)
        raise IsolatedClass(f"classes with zero affinity degree: {isolated.tolist()}")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    normalized = affinity.values * inv_sqrt[:, None] * inv_sqrt[None, :]
    _, vectors = symmetric_eigen(normalized)
    coords = vectors[:, :k]
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
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if k < 1 or k > n:
        raise DegeneratePoints(f"need 1 <= k <= {n} points, got k={k}")
    if np.unique(pts, axis=0).shape[0] < k:
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


def _repair_empty(assign: np.ndarray, dist2: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the point farthest from its current center."""
    assign = assign.copy()
    for j in range(k):
        if np.any(assign == j):
            continue
        counts = np.bincount(assign, minlength=k)
        own = dist2[np.arange(assign.size), assign]
        movable = counts[assign] > 1
        if not movable.any():
            raise EmptyCluster(f"cannot repair empty cluster {j}")
        candidate = int(np.argmax(np.where(movable, own, -np.inf)))
        assign[candidate] = j
    return assign


def build_visual_structure(
    table: FeatureTable,
    k: int,
    delta: float = 1.0,
    seed: int = 0,
    *,
    subclass_names=None,
    name: str | None = None,
    class_count: int | None = None,
) -> LabelStructure:
    """Cluster classes by feature affinity into a 3-level structure.

    Composes class_statistics -> affinity_matrix -> spectral_embedding ->
    kmeans; superclass m (named "s{m}") holds exactly the classes of
    cluster m. Subclass names default to "c{id}"; the structure name
    defaults to "H_A_k{k}".
    """
    stats = class_statistics(table, class_count)
    affinity = affinity_matrix(stats, delta)
    embedding = spectral_embedding(affinity, k)
    assign = kmeans(embedding.coords, k, seed=seed)
    if subclass_names is None:
        subclass_names = [f"c{i}" for i in range(stats.class_count)]
    subclass_names = tuple(subclass_names)
    if len(subclass_names) != stats.class_count:
        raise DimensionMismatch(
            f"{len(subclass_names)} names for {stats.class_count} classes"
        )
    return validate_structure(
        name=name if name is not None else f"H_A_k{k}",
        superclasses=[f"s{j}" for j in range(k)],
        subclass_names=subclass_names,
        parent_of={
            subclass_names[i]: f"s{int(assign[i])}" for i in range(stats.class_count)
        },
    )


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Chance-corrected partition agreement; 1.0 iff identical partitions."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape or a.size == 0:
        raise DimensionMismatch("label vectors must be non-empty and equal length")
    if a.size == 1:
        return 1.0
    _, a_ids = np.unique(a, return_inverse=True)
    _, b_ids = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_ids.max() + 1, b_ids.max() + 1), dtype=np.int64)
    np.add.at(contingency, (a_ids, b_ids), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(contingency.astype(np.float64)).sum()
    sum_rows = comb2(contingency.sum(axis=1).astype(np.float64)).sum()
    sum_cols = comb2(contingency.sum(axis=0).astype(np.float64)).sum()
    total = comb2(float(a.size))
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))
