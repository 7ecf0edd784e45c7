"""Visual label-structure construction from class statistics.

Pipeline: per-class statistics -> pairwise class distances -> affinity
matrix -> normalized spectral embedding -> k-means -> a 3-level structure
whose superclasses are the clusters.

The squared class distance is ||Q_i - Q_j||^2 + var_i + var_j (mean
vectors plus scalar trace variances), i.e. the expected squared distance
between independent samples of the two classes. The affinity is
exp(-dis / delta) with the distance, not its square, and a zero diagonal.

Every stage is deterministic given its seed. `symmetric_eigen` is a
Jacobi rotation scheme in the round-robin (Brent-Luk) pair ordering,
which applies each round's disjoint rotations as one array update, with
a declared convergence threshold, so results are reproducible across
platforms and reimplementations: it stops once the off-diagonal norm is
at most `_JACOBI_TOL` times the matrix norm, and fails after
`_JACOBI_MAX_SWEEPS` sweeps. The spectral embedding needs only the top k
eigenvectors, which `_top_eigen` finds by Chebyshev-filtered subspace
iteration on a block of p = min(n, 2k + 8) columns from a fixed start
block, with `symmetric_eigen` solving each p x p Rayleigh-Ritz problem;
it stops at a declared Ritz-residual tolerance, `_RITZ_TOL`, and fails
after `_MAX_FILTERS` filter rounds.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .config import config_int, config_real, config_seed, frozen_array, type_fields
from .exceptions import (
    DegeneratePoints,
    DimensionMismatch,
    EigensolverFailure,
    EmptyCluster,
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
        if values.min() < 0.0 or values.max() > 1.0:
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
    delta = config_real(delta, "delta")
    if delta <= 0:
        raise InvalidConfig(f"delta must be > 0, got {delta!r}")
    dist = class_distance_matrix(stats)
    values = np.exp(-dist / delta)
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


_JACOBI_TOL = 1e-10  # off-diagonal norm at convergence, relative to the matrix norm
_JACOBI_MAX_SWEEPS = 100


def symmetric_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Each sweep visits every index pair once, in the round-robin order of
    Brent & Luk (1985): n-1 rounds (n for odd n) of disjoint pairs, and
    the rotations of one round are applied together. Returns (eigenvalues,
    eigenvectors) with eigenvalues descending (stable order on ties) and
    eigenvectors as matching columns, each sign-fixed so its
    largest-magnitude component is positive. Converges when the
    off-diagonal Frobenius norm falls below `_JACOBI_TOL` times the matrix
    scale; exceeding `_JACOBI_MAX_SWEEPS` raises EigensolverFailure. NaN
    or infinite entries raise NonFiniteValue.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NonFiniteValue("matrix contains NaN or infinite entries")
    a = (a + a.T) / 2.0
    n = a.shape[0]
    scale = np.sqrt((a * a).sum())
    threshold = _JACOBI_TOL * max(scale, 1e-300)

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
    for _ in range(_JACOBI_MAX_SWEEPS):
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
                f"no convergence within {_JACOBI_MAX_SWEEPS} sweeps (n={n})"
            )

    back = slot[0, :n]  # from round 0's layout to index order, dummy dropped
    eigenvalues = np.diagonal(a)[back]
    vectors = vectors[:n][:, back]
    order = np.argsort(-eigenvalues, kind="stable")
    return eigenvalues[order], _lead_positive(vectors[:, order])


def _lead_positive(vectors: np.ndarray) -> np.ndarray:
    """The columns of `vectors`, each negated where its largest-magnitude
    component (the first, on ties) is negative."""
    if vectors.size == 0:
        return vectors
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return np.where(lead < 0.0, -vectors, vectors)


_SUBSPACE_SEED = 0  # draws the start block of the top-k eigensolver
_FILTER_DEGREE = 10  # Chebyshev degree of each filter round
_RITZ_TOL = 1e-10  # Ritz residual at convergence, relative to the matrix norm
_MAX_FILTERS = 300  # filter rounds before EigensolverFailure


def _chebyshev_filter(
    matrix: np.ndarray, block: np.ndarray, lower: float, upper: float
) -> np.ndarray:
    """T_m(t(matrix)) @ block / T_m(t(1)), m = `_FILTER_DEGREE`.

    t maps the unwanted interval [lower, upper] onto [-1, 1], where the
    Chebyshev polynomial T_m stays within [-1, 1]; above it T_m grows
    fast, and dividing by its value at the top eigenvalue 1 keeps every
    term of the recurrence at most the block's size. The recurrence is
    carried in ratio form (Zhou & Saad 2007): with center c and radius e
    of the interval, r_j = T_{j-1}(t(1)) / (e T_j(t(1))) obeys
    r_1 = 1 / (1 - c) and r_{j+1} = 1 / (2 (1 - c) - e^2 r_j), so nothing
    overflows and e never divides, even for an interval of width 0.
    """
    center, radius2 = (upper + lower) / 2.0, ((upper - lower) / 2.0) ** 2
    ratio = 1.0 / (1.0 - center)
    previous, current = block, (matrix @ block - center * block) * ratio
    for _ in range(_FILTER_DEGREE - 1):
        following = 1.0 / (2.0 * (1.0 - center) - radius2 * ratio)
        previous, current = current, (
            (matrix @ current - center * current) * (2.0 * following)
            - previous * (radius2 * ratio * following)
        )
        ratio = following
    return current


def _top_eigen(matrix: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of a normalized nonnegative affinity N by
    Chebyshev-filtered subspace iteration (Saad 2011, ch. 5 and 7; Zhou &
    Saad 2007).

    The spectrum of N lies in [-1, 1] and holds 1, so every other
    eigenvalue is at least floor = -min(1, sqrt(||N||_F^2 - 1)). A block
    of p = min(n, 2k + 8) orthonormal columns starts as the QR of a normal
    block drawn from `_SUBSPACE_SEED`. Each round solves the p x p
    Rayleigh-Ritz problem with `symmetric_eigen` and stops once the
    residual ||N V_k - V_k Theta_k||_F of the top k Ritz pairs is at most
    `_RITZ_TOL` times ||N||_F; otherwise it filters the Ritz vectors over
    [floor, theta_p], theta_p the smallest Ritz value, and takes the QR of
    the result. With p = n the first Ritz step is already exact. Needing
    more than `_MAX_FILTERS` filter rounds raises EigensolverFailure.
    Returns (eigenvalues, eigenvectors), ordered and sign-fixed as by
    `symmetric_eigen`.
    """
    n = matrix.shape[0]
    p = min(n, 2 * k + 8)
    square_norm = (matrix * matrix).sum()
    tolerance = _RITZ_TOL * np.sqrt(square_norm)
    floor = -min(1.0, np.sqrt(square_norm - 1.0))
    block = np.linalg.qr(rng_from_seed(_SUBSPACE_SEED).standard_normal((n, p)))[0]
    for filters in range(_MAX_FILTERS + 1):
        image = matrix @ block
        values, ritz = symmetric_eigen(block.T @ image)
        vectors = block @ ritz
        residual = image @ ritz[:, :k] - vectors[:, :k] * values[:k]
        if np.sqrt((residual * residual).sum()) <= tolerance:
            return values[:k], _lead_positive(vectors[:, :k])
        if filters < _MAX_FILTERS:
            filtered = _chebyshev_filter(matrix, vectors, floor, values[-1])
            block = np.linalg.qr(filtered)[0]
    raise EigensolverFailure(
        f"no convergence within {_MAX_FILTERS} filter rounds (n={n}, k={k})"
    )


def spectral_embedding(affinity: AffinityMatrix, k: int) -> SpectralEmbedding:
    """Top-k eigenvectors of D^{-1/2} A D^{-1/2}, rows normalized to unit length.

    The eigenvectors come from `_top_eigen`, which solves only a block of
    p = min(n, 2k + 8) columns, each sign-fixed so its largest-magnitude
    component is positive, as `symmetric_eigen` fixes them.
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
    _, coords = _top_eigen(normalized, k)
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
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if not np.all(np.isfinite(pts)):
        raise NonFiniteValue("k-means points contain NaN or infinity")
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
    table: FeatureTable, k: int, delta: float = 1.0, seed: int = 0
) -> LabelStructure:
    """Cluster classes by feature affinity into the structure "H_A_k{k}".

    Composes class_statistics -> affinity_matrix -> spectral_embedding ->
    kmeans over the table's subclass name table; superclass m (named
    "s{m}") holds exactly the classes of cluster m.
    """
    stats = class_statistics(table)
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
