"""Microaggregation: fixed-size clustering of attribute values.

Individual ranking sorts one attribute, cuts the sorted sequence into
floor(n/k) consecutive clusters (all of size k except the last, which
absorbs the remainder and holds between k and 2k-1 values) and replaces
every value by its cluster centroid. The multivariate variant clusters
whole records along a single projection instead, one partition shared by
all attributes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import NUMERIC, Dataset, DataError
from .taxonomy import Taxonomy, marginality_centroid, marginality_table


@dataclass(frozen=True)
class ClusterPlan:
    """Partition of one attribute into rank-contiguous clusters.

    Cluster ids follow sorted order, so cluster j holds ranks
    [j*k, (j+1)*k) and the last cluster runs to the end. `assignments`
    maps record positions (original order) to cluster ids; `centroids`
    is indexable by cluster id. Both are read-only, so a plan reused
    across releases cannot be corrupted by one of them.
    """

    assignments: np.ndarray
    centroids: np.ndarray | tuple[str, ...]
    sizes: np.ndarray
    sorted_indices: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)

    def members(self, cluster_id: int) -> np.ndarray:
        """Record indices of one cluster, in rank order."""
        starts = np.concatenate(([0], np.cumsum(self.sizes)))
        return self.sorted_indices[starts[cluster_id]:starts[cluster_id + 1]]


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n]; got k={k}, n={n}")


def _rank_clusters(keys: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable-sort `keys` and cut the ranks into floor(n/k) clusters.

    Returns `(sorted_indices, sizes, starts, assignments)`: record indices
    in rank order, cluster sizes, the first rank of every cluster, and the
    read-only cluster id of every record in original order.
    """
    n = keys.shape[0]
    _check_k(k, n)
    n_clusters = n // k
    sizes = np.full(n_clusters, k, dtype=np.int64)
    sizes[-1] = n - (n_clusters - 1) * k
    sorted_idx = np.argsort(keys, kind="stable")
    starts = np.arange(n_clusters, dtype=np.int64) * k
    assignments = np.empty(n, dtype=np.int64)
    assignments[sorted_idx] = np.repeat(np.arange(n_clusters, dtype=np.int64), sizes)
    assignments.flags.writeable = False
    return sorted_idx, sizes, starts, assignments


def categorical_order_key(taxonomy: Taxonomy, values: Sequence[str]) -> dict[str, int]:
    """Total order over the distinct labels of `values`.

    The most marginal label (ties broken lexicographically) acts as the
    reference point; labels are then ranked by ascending distance to it,
    again breaking ties lexicographically.
    """
    scores = marginality_table(taxonomy, values)
    labels = list(scores)  # already in sorted-label order
    reference = max(labels, key=scores.__getitem__)
    # Marginality against the single value `reference` is the distance to it.
    distance = taxonomy.marginalities(taxonomy.node_ids(labels), taxonomy.node_ids([reference]))
    ordered = np.argsort(distance, kind="stable")
    return {labels[i]: rank for rank, i in enumerate(ordered.tolist())}


def individual_ranking(
    column: Sequence,
    k: int,
    *,
    taxonomy: Taxonomy | None = None,
    order: Mapping[str, int] | None = None,
) -> ClusterPlan:
    """Cluster one attribute by rank and compute per-cluster centroids.

    Numeric columns sort naturally and use the mean as centroid. For
    categorical columns pass the attribute's taxonomy: labels sort by
    `categorical_order_key` (or an explicit `order`) and each cluster's
    centroid is its least marginal subtree node. Sorting is stable, so
    equal values keep their original relative order.
    """
    if taxonomy is None:
        values = np.asarray(column, dtype=float)
        sorted_idx, sizes, starts, assignments = _rank_clusters(values, k)
        sums = np.add.reduceat(values[sorted_idx], starts)
        centroids: np.ndarray | tuple[str, ...] = sums / sizes
        centroids.flags.writeable = False
    else:
        labels = list(column)
        _check_k(k, len(labels))
        ranks = order if order is not None else categorical_order_key(taxonomy, labels)
        try:
            keys = np.array([ranks[lab] for lab in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} missing from order key") from None
        sorted_idx, sizes, starts, assignments = _rank_clusters(keys, k)
        centroids = tuple(
            marginality_centroid(taxonomy, [labels[i] for i in sorted_idx[a:a + size]])
            for a, size in zip(starts, sizes)
        )
    return ClusterPlan(
        assignments=assignments, centroids=centroids, sizes=sizes, sorted_indices=sorted_idx
    )


@dataclass(frozen=True)
class MultivariatePlan:
    """Record-level partition shared by every attribute.

    Records sort by their normalized L1 distance to the lower domain
    corner (sum over attributes of (v - lower) / (upper - lower)), ties
    broken by record index. `centroids` has one row per cluster with one
    mean per attribute, in schema order. `assignments` and `centroids`
    are read-only.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    sizes: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)


def multivariate_baseline(data: Dataset, k: int) -> MultivariatePlan:
    """Cluster whole records along one projection; numeric data only."""
    for attr in data.schema:
        if attr.kind != NUMERIC:
            raise DataError(
                f"attribute {attr.name!r} is categorical; the multivariate baseline "
                "handles numeric data only"
            )
    matrix = np.column_stack([data.column(a.name) for a in data.schema])
    lows = np.array([a.lower for a in data.schema], dtype=float)
    widths = np.array([a.sensitivity for a in data.schema], dtype=float)
    keys = ((matrix - lows) / widths).sum(axis=1)
    sorted_idx, sizes, starts, assignments = _rank_clusters(keys, k)
    sums = np.add.reduceat(matrix[sorted_idx], starts, axis=0)
    centroids = sums / sizes[:, None]
    centroids.flags.writeable = False
    return MultivariatePlan(assignments=assignments, centroids=centroids, sizes=sizes)
