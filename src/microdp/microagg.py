"""Microaggregation: fixed-size clustering of attribute values.

Individual ranking sorts one attribute, cuts the sorted sequence into
floor(n/k) consecutive clusters (all of size k except the last, which
absorbs the remainder and holds between k and 2k-1 values) and replaces
every value by its cluster centroid. The multivariate variant cuts the
same way along a single projection of whole records instead, one
partition shared by all attributes. Both return a `ClusterPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .data import NUMERIC, Dataset, DataError
from .taxonomy import Taxonomy, marginality_centroid, marginality_table


@dataclass(frozen=True)
class ClusterPlan:
    """Partition of the records into rank-contiguous clusters.

    Cluster ids follow sorted order, so cluster j holds ranks
    [j*k, (j+1)*k) and the last cluster runs to the end. `assignments`
    maps record positions (original order) to cluster ids,
    `sorted_indices` lists record positions in rank order and `sizes`
    counts the records of every cluster. `centroids` is indexable by
    cluster id: one value or label per cluster for one attribute, or one
    row of attribute means per cluster for the multivariate baseline.
    All are read-only, so a plan reused across releases cannot be
    corrupted by one of them.
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
        # Every cluster but the last holds sizes[0] records.
        start = cluster_id * int(self.sizes[0])
        return self.sorted_indices[start:start + int(self.sizes[cluster_id])]

    def clusters(self, column: Sequence) -> Iterator[list]:
        """The values of `column` in each cluster, cluster by cluster, in rank order."""
        for cluster_id in range(self.n_clusters):
            yield [column[i] for i in self.members(cluster_id).tolist()]


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n]; got k={k}, n={n}")


def _rank_clusters(keys: np.ndarray, k: int) -> ClusterPlan:
    """Stable-sort `keys` and cut the ranks into floor(n/k) clusters; no centroids yet."""
    n = keys.shape[0]
    _check_k(k, n)
    n_clusters = n // k
    sizes = np.full(n_clusters, k, dtype=np.int64)
    sizes[-1] = n - (n_clusters - 1) * k
    sorted_idx = np.argsort(keys, kind="stable")
    assignments = np.empty(n, dtype=np.int64)
    assignments[sorted_idx] = np.repeat(np.arange(n_clusters, dtype=np.int64), sizes)
    for array in (assignments, sizes, sorted_idx):
        array.flags.writeable = False
    return ClusterPlan(assignments=assignments, centroids=(), sizes=sizes, sorted_indices=sorted_idx)


def _with_means(plan: ClusterPlan, values: np.ndarray) -> ClusterPlan:
    """`plan` with the per-cluster means of `values` (one row per record) as centroids."""
    starts = np.arange(plan.n_clusters, dtype=np.int64) * plan.sizes[0]
    sums = np.add.reduceat(values[plan.sorted_indices], starts)
    centroids = sums / (plan.sizes if values.ndim == 1 else plan.sizes[:, None])
    centroids.flags.writeable = False
    return replace(plan, centroids=centroids)


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
) -> ClusterPlan:
    """Cluster one attribute by rank and compute per-cluster centroids.

    Numeric columns sort naturally and use the mean as centroid. For
    categorical columns pass the attribute's taxonomy: labels sort by
    `categorical_order_key` and each cluster's centroid is its least
    marginal subtree node. Sorting is stable, so equal values keep their
    original relative order.
    """
    if taxonomy is None:
        values = np.asarray(column, dtype=float)
        return _with_means(_rank_clusters(values, k), values)
    labels = list(column)
    _check_k(k, len(labels))
    ranks = categorical_order_key(taxonomy, labels)
    keys = np.array([ranks[lab] for lab in labels], dtype=np.int64)
    plan = _rank_clusters(keys, k)
    centroids = tuple(marginality_centroid(taxonomy, cluster) for cluster in plan.clusters(labels))
    return replace(plan, centroids=centroids)


def multivariate_baseline(data: Dataset, k: int) -> ClusterPlan:
    """Cluster whole records along one projection; numeric data only.

    Records sort by their normalized L1 distance to the lower domain
    corner (sum over attributes of (v - lower) / (upper - lower)), ties
    broken by record index. The plan's `centroids` has one row per
    cluster with one mean per attribute, in schema order.
    """
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
    return _with_means(_rank_clusters(keys, k), matrix)
