"""Microaggregation: fixed-size clustering of attribute values.

Individual ranking sorts one attribute, cuts the sorted sequence into
floor(n/k) consecutive clusters (all of size k except the last, which
absorbs the remainder and holds between k and 2k-1 values) and replaces
every value by its cluster centroid. Labels sort by semantic
marginality (Domingo-Ferrer, Sánchez and Rufian-Torrell 2013): the
most marginal label is the reference, found by `Taxonomy.most_marginal`
(exact: only the labels near the approximate maximum are scored, by
the same left fold as `Taxonomy.marginalities`), and the labels rank by
their distance to it. A categorical centroid is a node id
(`Taxonomy.labels` names it; `mechanisms.records` makes the labels), and
it depends only on the cluster's multiset of labels:
`ClusterPlan.distinct_clusters` groups the clusters by multiset, one
`Taxonomy.spanned_marginalities` call per cluster size scores every
distinct one, and the plan keeps those scores in `ClusterPlan.groups`,
so the exponential mechanism's draws read them there (a plan depends on
neither epsilon nor the seed). The multivariate variant cuts the same
way along a single projection of whole records instead, one partition
shared by all attributes. Both return a `ClusterPlan`;
`mechanisms.perturb` draws from the plans the released columns
(`data.ClusterColumn`), one per attribute.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .data import NUMERIC, Dataset, DataError
# The two label wrappers stay module globals here for the benchmark tracer's call counters.
from .taxonomy import Taxonomy, TaxonomyError, marginality_centroid, marginality_table  # noqa: F401


@dataclass(frozen=True)
class ClusterPlan:
    """Partition of the records into rank-contiguous clusters.

    Cluster ids follow sorted order, so cluster j holds ranks
    [j*k, (j+1)*k) and the last cluster runs to the end. `assignments`
    maps record positions (original order) to cluster ids,
    `sorted_indices` lists record positions in rank order and `sizes`
    counts the records of every cluster. `centroids` is an array indexed
    by cluster id: one value per cluster for one attribute (a label as
    its taxonomy node id; `taxonomy.labels[c]` is the label), or one row
    of attribute means per cluster for the multivariate baseline. An
    individual-ranking label plan keeps in `groups` one
    (cluster ids, candidate ids, marginalities) triple per distinct
    multiset: the ascending ids of the clusters holding it, its spanned
    subtree in ascending node ids, and their scores against it (None
    otherwise). All are read-only, so a reused plan stays intact.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    sizes: np.ndarray
    sorted_indices: np.ndarray
    groups: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...] | None = None

    @property
    def n_clusters(self) -> int:
        return len(self.sizes)

    def members(self, cluster_id: int) -> np.ndarray:
        """Record indices of one cluster, in rank order."""
        # Every cluster but the last holds sizes[0] records.
        start = cluster_id * int(self.sizes[0])
        return self.sorted_indices[start:start + int(self.sizes[cluster_id])]

    def distinct_clusters(self, ids: np.ndarray) -> Iterator[tuple[list[np.ndarray], np.ndarray]]:
        """The clusters grouped by the multiset of `ids` they hold, one batch per cluster size.

        `ids` holds one integer per record, such as a label's node id.
        A batch pairs its groups, each the ascending ids of the clusters
        holding one multiset, with a 2-D array whose row i is group i's
        multiset, sorted. Every cluster but the last holds `sizes[0]`
        records and is keyed by the bytes of its sorted ids; a larger last
        cluster is a batch of its own (a single cluster is never larger
        than `sizes[0]`).
        """
        k = int(self.sizes[0])
        full = self.n_clusters if self.sizes[-1] == k else self.n_clusters - 1
        rows = np.sort(ids[self.sorted_indices[:full * k]].reshape(full, k), axis=1)
        keys = rows.view(np.dtype((np.void, rows.itemsize * k))).ravel()
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        order.flags.writeable = False  # and so each group, a view of it
        starts = np.flatnonzero(np.append(True, keys[1:] != keys[:-1]))
        yield np.split(order, starts[1:]), rows[order[starts]]
        if full < self.n_clusters:
            last = np.array([full])
            last.flags.writeable = False
            yield [last], np.sort(ids[self.members(full)])[None, :]


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n]; got k={k}, n={n}")


def _stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.argsort(keys, kind="stable")` and `keys` in that order.

    The default argsort is several times faster than the stable one but
    leaves equal keys in any order, so the indices of every run of equal
    keys are sorted back into ascending order: offset by their run's
    number times n (n < 3·10⁹ keeps this in int64), one sort of the tied
    positions keeps each run in place. The keys must not be NaN, which
    equals nothing.
    """
    n = keys.shape[0]
    order = np.argsort(keys)
    sorted_keys = keys[order]
    equal = sorted_keys[1:] == sorted_keys[:-1]
    if not equal.any():
        return order, sorted_keys
    del sorted_keys  # gathered again below: -0.0 == 0.0, so equal keys need not share their bits
    tied = np.zeros(n, dtype=bool)
    tied[1:] = equal
    tied[:-1] |= equal
    offset = np.cumsum(np.append(True, ~equal)[tied], dtype=np.int64) * n
    offset += order[tied]
    offset.sort()
    offset %= n  # back to record indices, ascending within each run
    order[tied] = offset
    return order, keys[order]


def _rank_clusters(keys: np.ndarray, k: int, *, means: bool = False) -> ClusterPlan:
    """Stable-sort `keys` and cut the ranks into floor(n/k) clusters.

    With `means`, the centroids are the clusters' means of `keys`; else
    there are none yet. Keys must be finite: the error names the first
    record whose key is not.
    """
    n = keys.shape[0]
    _check_k(k, n)
    n_clusters = n // k
    sizes = np.full(n_clusters, k, dtype=np.int64)
    sizes[-1] = n - (n_clusters - 1) * k
    sorted_idx, sorted_keys = _stable_order(keys)
    # -inf sorts first and NaN last, so the two ends show any non-finite key.
    if not np.isfinite(sorted_keys[[0, -1]]).all():
        bad = int(np.flatnonzero(~np.isfinite(keys))[0])
        raise ValueError(f"record {bad}: sort key {keys[bad]} is not finite")
    centroids = ()
    if means:
        centroids = np.add.reduceat(sorted_keys, np.arange(n_clusters, dtype=np.int64) * k) / sizes
        centroids.flags.writeable = False
    del sorted_keys  # before the scatter, which would otherwise raise the peak
    assignments = np.empty(n, dtype=np.int64)
    assignments[sorted_idx] = np.repeat(np.arange(n_clusters, dtype=np.int64), sizes)
    for array in (assignments, sizes, sorted_idx):
        array.flags.writeable = False
    return ClusterPlan(assignments=assignments, centroids=centroids, sizes=sizes, sorted_indices=sorted_idx)


def _label_order(taxonomy: Taxonomy, ids: np.ndarray) -> np.ndarray:
    """The distinct node ids of `ids` in `categorical_order_key` order."""
    distinct = np.bincount(ids).nonzero()[0]  # ascending ids: sorted-label order
    # Marginality against the single value `ref` is the distance to it.
    ref = np.array([taxonomy.most_marginal(ids)])
    return distinct[np.argsort(taxonomy.marginalities(distinct, ref), kind="stable")]


def categorical_order_key(taxonomy: Taxonomy, values: Sequence[str]) -> dict[str, int]:
    """Total order over the distinct labels of `values`.

    The most marginal label (ties broken lexicographically) acts as the
    reference point; labels are then ranked by ascending distance to it,
    again breaking ties lexicographically.
    """
    if not len(values):
        raise TaxonomyError("empty value set")
    order = _label_order(taxonomy, taxonomy.node_ids(values))
    return {taxonomy.labels[i]: rank for rank, i in enumerate(order.tolist())}


def individual_ranking(
    column: Sequence,
    k: int,
    *,
    taxonomy: Taxonomy | None = None,
) -> ClusterPlan:
    """Cluster one attribute by rank and compute per-cluster centroids.

    Numeric columns sort naturally and use the mean as centroid. For
    categorical columns pass the attribute's taxonomy, and labels or an
    integer array of their node ids: labels sort by `categorical_order_key`
    and each cluster's centroid is the node id of its least marginal
    subtree node (the smallest id on ties). Each distinct multiset of
    labels is scored once, and the plan keeps those scores in `groups`.
    Sorting is stable, so equal values keep their
    original order. A numeric value that is NaN or infinite raises
    ValueError, naming its record.
    """
    if taxonomy is None:
        return _rank_clusters(np.asarray(column, dtype=float), k, means=True)
    _check_k(k, len(column))
    is_ids = isinstance(column, np.ndarray) and column.dtype.kind in "iu"  # else labels
    if is_ids and not 0 <= column.min() <= column.max() < len(taxonomy):
        raise TaxonomyError(f"node ids must lie in [0, {len(taxonomy)})")
    ids = column.astype(np.intp, copy=False) if is_ids else taxonomy.node_ids(column)
    order = _label_order(taxonomy, ids)
    n = len(ids)
    if len(order) * n >= 2 ** 63:
        raise ValueError(f"{len(order)} labels of {n} records overflow the int64 sort keys")
    # Distinct keys rank * n + index sort in the stable rank order with no ties to undo.
    rank_of_id = np.zeros(len(taxonomy), dtype=np.int64)
    rank_of_id[order] = np.arange(0, len(order) * n, n, dtype=np.int64)
    keys = rank_of_id[ids]
    keys += np.arange(n, dtype=np.int64)
    plan = _rank_clusters(keys, k)
    del keys  # before the centroids' temporaries
    # A centroid depends only on the cluster's multiset: each distinct one is scored once.
    centroids = np.empty(plan.n_clusters, dtype=np.intp)
    groups = []
    for clusters, rows in plan.distinct_clusters(ids):
        for group, cands, scores in zip(clusters, *taxonomy.spanned_marginalities(rows)):
            centroids[group] = cands[np.argmin(scores)]
            groups.append((group, cands, scores))
    centroids.flags.writeable = False
    return replace(plan, centroids=centroids, groups=tuple(groups))


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
    plan = _rank_clusters(keys, k)
    starts = np.arange(plan.n_clusters, dtype=np.int64) * plan.sizes[0]
    centroids = np.add.reduceat(matrix[plan.sorted_indices], starts) / plan.sizes[:, None]
    centroids.flags.writeable = False
    return replace(plan, centroids=centroids)
