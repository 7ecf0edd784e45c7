"""Brute-force reference implementations used only by the tests.

These recompute library answers along independent routes: explicit tree
walks over the structure file representation, root-to-leaf path sets
built node by node, exhaustive enumeration of partitions, eigensystems by
repeated matrix squaring with deflation, the multi-task loss summed
row by row in plain Python, and synthetic features as a sum of two
temporaries. An agreement test therefore compares two
implementations of the same definition, not one implementation against
itself. From the library this module imports only its exceptions and the
structure file representation (`structure_to_dict`, `validate_structure`).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hierfusion.exceptions import DimensionMismatch, IdOutOfRange
from hierfusion.taxonomy import structure_to_dict, validate_structure


# -- hierarchical metrics by explicit tree walk ------------------------------

def _tree_graph(structure):
    """Undirected adjacency of the 3-level tree, nodes as tagged strings."""
    raw = structure_to_dict(structure)
    adj = {}

    def link(a, b):
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)

    for sup in raw["superclasses"]:
        link("root", "super:" + sup)
    for sub, sup in raw["parent_of"].items():
        link("super:" + sup, "sub:" + sub)
    return adj, raw


def _bfs_edges(adj, start, goal):
    """Edge count of the shortest path, by breadth-first search."""
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    distance = 0
    while frontier:
        distance += 1
        nxt = []
        for node in frontier:
            for neighbor in adj[node]:
                if neighbor == goal:
                    return distance
                if neighbor not in seen:
                    seen.add(neighbor)
                    nxt.append(neighbor)
        frontier = nxt
    raise AssertionError("tree is disconnected")


def _upward_path(raw, sub_name):
    return ["sub:" + sub_name, "super:" + raw["parent_of"][sub_name], "root"]


def tree_walk_report(structures, predicted, truth):
    """Reference evaluation report, as a plain dict.

    Path sets are materialized node by node, tie distances come from BFS
    over the explicit tree graph, and LCA heights from scanning the
    upward path for the first shared ancestor.
    """
    predicted = [int(v) for v in predicted]
    truth = [int(v) for v in truth]
    n = len(predicted)
    per_structure = []
    for structure in structures:
        adj, raw = _tree_graph(structure)
        subs = raw["subclasses"]
        inter_total = 0
        pred_total = 0
        true_total = 0
        tie_total = 0
        lca_total = 0
        for p, t in zip(predicted, truth):
            p_path = _upward_path(raw, subs[p])
            t_path = _upward_path(raw, subs[t])
            p_set, t_set = set(p_path), set(t_path)
            inter_total += len(p_set & t_set)
            pred_total += len(p_set)
            true_total += len(t_set)
            tie_total += _bfs_edges(adj, p_path[0], t_path[0])
            lca_total += next(
                height for height, node in enumerate(p_path) if node in t_set
            )
        p_h = inter_total / pred_total
        r_h = inter_total / true_total
        per_structure.append(
            {
                "name": raw["name"],
                "p_h": p_h,
                "r_h": r_h,
                "f_h": 2.0 * p_h * r_h / (p_h + r_h),
                "tie": tie_total / n,
                "lca": lca_total / n,
            }
        )
    m = len(per_structure)
    p_ha = sum(s["p_h"] for s in per_structure) / m
    r_ha = sum(s["r_h"] for s in per_structure) / m
    return {
        "accuracy": sum(1 for p, t in zip(predicted, truth) if p == t) / n,
        "p_ha": p_ha,
        "r_ha": r_ha,
        "f_ha": 2.0 * p_ha * r_ha / (p_ha + r_ha),
        "tie_a": sum(s["tie"] for s in per_structure) / m,
        "lca_a": sum(s["lca"] for s in per_structure) / m,
        "per_structure": per_structure,
    }


# -- scalar tree distances, one pair of leaves at a time --------------------

def _leaf(structure, subclass: int) -> int:
    if not 0 <= int(subclass) < structure.subclass_count:
        raise IdOutOfRange(
            f"subclass id {subclass} outside [0, {structure.subclass_count})"
        )
    return int(subclass)


def tie_distance(structure, c: int, c_hat: int) -> int:
    """Edge count between two leaves: 0 same, 2 same parent, 4 otherwise.

    The 3-level tree admits no other values: siblings connect through the
    shared superclass, everything else through the root.
    """
    c, c_hat = _leaf(structure, c), _leaf(structure, c_hat)
    if c == c_hat:
        return 0
    if structure.parent_index[c] == structure.parent_index[c_hat]:
        return 2
    return 4


def lca_height(structure, c: int, c_hat: int) -> int:
    """Height of the lowest common ancestor above the leaf level (0/1/2)."""
    return tie_distance(structure, c, c_hat) // 2


#: Identifier of the (implicit, shared) root node of every path set.
ROOT = "<root>"


def augmented_set(structure, c: int) -> frozenset:
    """Nodes on the root-to-leaf path: {root, parent superclass, leaf id}.

    The parent is read from the structure file representation and
    namespaced by the structure name, so that superclasses of different
    structures never collide. With the root included every path set has
    exactly 3 members, so two leaves share 3 - (height of their lowest
    common ancestor) nodes.
    """
    raw = structure_to_dict(structure)
    sub = raw["subclasses"][_leaf(structure, c)]
    return frozenset({ROOT, f"{raw['name']}/{raw['parent_of'][sub]}", int(c)})


def random_structure(rng, subclass_count, name="h"):
    """A random valid 3-level structure over subclasses c0..c{n-1}.

    The first k parent slots enumerate every superclass before shuffling,
    so no superclass ends up empty.
    """
    k = int(rng.integers(1, subclass_count + 1))
    parent = np.arange(subclass_count) % k
    parent = parent[rng.permutation(subclass_count)]
    return validate_structure(
        name=name,
        superclasses=[f"{name}_s{j}" for j in range(k)],
        subclass_names=[f"c{i}" for i in range(subclass_count)],
        parent_of={
            f"c{i}": f"{name}_s{int(parent[i])}" for i in range(subclass_count)
        },
    )


# -- the distance of one class pair ------------------------------------------

def class_distance(mean_i, var_i: float, mean_j, var_j: float) -> float:
    """sqrt(||Q_i - Q_j||^2 + var_i + var_j); symmetric and non-negative.

    The pairwise definition that structure_builder.class_distance_matrix
    batches; its rows must match this bit for bit.
    """
    mean_i = np.asarray(mean_i, dtype=np.float64)
    mean_j = np.asarray(mean_j, dtype=np.float64)
    if mean_i.shape != mean_j.shape:
        raise DimensionMismatch("class means must share a dimension")
    diff = mean_i - mean_j
    return float(np.sqrt(diff @ diff + float(var_i) + float(var_j)))


# -- k-means by exhaustive partition enumeration -----------------------------

def min_partition_inertia(points, k):
    """Minimal inertia over every k-partition (feasible for n <= 8)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        total = 0.0
        for j in range(k):
            members = pts[np.fromiter(
                (i for i in range(n) if assign[i] == j), dtype=np.int64
            )]
            center = members.mean(axis=0)
            total += float(((members - center) ** 2).sum())
        if total < best:
            best = total
    return best


def inertia_of(points, assignment):
    """Inertia of a given assignment at the cluster means."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    assignment = np.asarray(assignment)
    total = 0.0
    for j in np.unique(assignment):
        members = pts[assignment == j]
        center = members.mean(axis=0)
        total += float(((members - center) ** 2).sum())
    return total


# -- symmetric eigensystem by repeated squaring and deflation ----------------

def squaring_eigensystem(matrix, seed=0, count=None):
    """Descending eigenvalues and unit eigenvectors of a symmetric matrix;
    only the leading `count` pairs (all n when None).

    Shift to a positive-definite matrix, isolate the dominant eigenspace
    by repeatedly squaring (each squaring doubles the exponent, so 60
    rounds resolve even tiny spectral gaps), read the eigenvalue off the
    Rayleigh quotient, deflate, and repeat. No characteristic polynomial,
    no library eigensolver.
    """
    a = np.asarray(matrix, dtype=np.float64)
    a = (a + a.T) / 2.0
    n = a.shape[0]
    count = n if count is None else count
    shift = float(np.sqrt((a * a).sum())) + 1.0
    residual = a + shift * np.eye(n)
    rng = np.random.default_rng(seed)
    values = np.empty(count)
    vectors = np.empty((n, count))
    for i in range(count):
        power = residual.copy()
        for _ in range(60):
            peak = np.abs(power).max()
            power = (power / peak) @ (power / peak)
        v = power @ rng.normal(size=n)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            v = power @ rng.normal(size=n)
            norm = np.linalg.norm(v)
        v = v / norm
        mu = float(v @ residual @ v)
        values[i] = mu - shift
        vectors[:, i] = v
        residual = residual - mu * np.outer(v, v)
    order = np.argsort(-values, kind="stable")
    return values[order], vectors[:, order]


# -- the multi-task training loss, row by row ---------------------------------

@dataclass(frozen=True)
class LossBreakdown:
    """Total training loss and its unweighted components."""

    total: float
    subclass: float
    per_structure: tuple[float, ...]


def cross_entropy(logits, labels) -> float:
    """Mean over rows of -log softmax(row)[label].

    Each row's log-sum-exp is taken after subtracting the row maximum, so
    a constant added to a row changes nothing and no exp overflows.
    """
    rows = [[float(v) for v in row] for row in logits]
    labels = [int(y) for y in labels]
    if len(rows) != len(labels):
        raise AssertionError("one label per row of logits")
    total = 0.0
    for row, label in zip(rows, labels):
        shift = max(row)
        lse = shift + math.log(sum(math.exp(v - shift) for v in row))
        total += lse - row[label]
    return total / len(rows)


def multi_task_loss(outputs, subclass_labels, superclass_labels, lambdas):
    """(1 - sum(lambdas)) * CE(subclass) + sum_m lambdas[m] * CE(superclass m).

    `outputs` is (subclass logits, per-structure superclass logits) of a
    batch, each an (n, k) array or nested list; `superclass_labels[m]`
    and `lambdas[m]` belong to structure m.
    """
    sub_logits, super_logits = outputs
    if not len(super_logits) == len(superclass_labels) == len(lambdas):
        raise AssertionError("one logit block, label vector and weight per head")
    subclass = cross_entropy(sub_logits, subclass_labels)
    per = tuple(cross_entropy(z, y) for z, y in zip(super_logits, superclass_labels))
    total = (1.0 - sum(lambdas)) * subclass + sum(w * v for w, v in zip(lambdas, per))
    return LossBreakdown(total=total, subclass=subclass, per_structure=per)


# -- synthetic features by the two-temporary formula --------------------------

def synthetic_features(spec):
    """The features generate_synthetic draws for the SyntheticSpec `spec`:
    each subclass centre repeated once per sample, plus the noise scaled
    in a second temporary. Draws come from the Philox stream of
    `spec.seed` in generate_synthetic's order: superclass centres,
    subclass offsets, noise."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    k, per, d = spec.superclass_count, spec.subclasses_per_superclass, spec.dim
    centres = rng.standard_normal((k, d))
    if k > 1:
        gaps = [np.sqrt(((centres[i] - centres[j]) ** 2).sum())
                for i, j in itertools.combinations(range(k), 2)]
        centres = centres * (spec.superclass_separation / min(gaps))
    offsets = rng.standard_normal((k * per, d))
    offsets = offsets / np.sqrt((offsets * offsets).sum(axis=1, keepdims=True))
    sub_centres = np.repeat(centres, per, axis=0) + spec.subclass_separation * offsets
    noise = rng.standard_normal((k * per * spec.samples_per_subclass, d))
    return (np.repeat(sub_centres, spec.samples_per_subclass, axis=0)
            + spec.noise_scale * noise)
