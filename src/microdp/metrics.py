"""Utility metrics comparing an original dataset against its release.

Three views of distortion: per-value relative error (with a sanity bound
so near-zero originals cannot blow up the ratio), the relative change of
each numeric attribute's variance, and the Jensen-Shannon divergence of
per-attribute histograms.

Every metric runs through one scorer in two steps: the original-side
terms of each attribute, then the score of the release against them. A
`Reference` keeps those terms, so a sweep that scores many releases of
one dataset computes them once. A release is scored either as a table
(`Dataset`) or as its released plans (`mechanisms.perturb`), with the
same bits: the JSD bins one value per cluster, weighted by the cluster
size (a table's column is its own values, one per record), and relative
error and variance spread a plan over its records
(`ClusterPlan.per_record`; a categorical relative error maps one node
id per cluster and spreads the ids). A numeric attribute's JSD term
holds its bin edges, and one kernel, `_binned`, bins every release
against them. Both sides must hold finite numeric values and labels of
their taxonomy (`data.check_values`); a bad value is rejected, naming
its record (or cluster) and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .data import NUMERIC, DataError, Dataset, check_values
from .microagg import ClusterPlan


# The relative-error floor is the domain width / SANITY_DIVISOR.
SANITY_DIVISOR = 100.0
# Equal-width histogram bins per numeric attribute for the JSD.
NUMERIC_BINS = 100
# Values binned at a time; np.histogram's block size.
_BLOCK = 65536


@dataclass(frozen=True)
class UtilityReport:
    """Bundle of all metric values for one release."""

    re_per_attribute: Mapping[str, float]
    re_dataset: float
    jsd_per_attribute: Mapping[str, float]
    jsd_dataset: float
    variance_delta_per_attribute: Mapping[str, float | None]
    params: Mapping[str, object]

    def to_json_dict(self) -> dict:
        return {
            "re_per_attribute": dict(self.re_per_attribute),
            "re_dataset": self.re_dataset,
            "jsd_per_attribute": dict(self.jsd_per_attribute),
            "jsd_dataset": self.jsd_dataset,
            "variance_delta_per_attribute": dict(self.variance_delta_per_attribute),
            "params": dict(self.params),
        }


class Reference:
    """The original-side terms of the three metrics, for scoring many releases.

    Everything a metric computes from the original alone (taxonomy node
    ids, bin edges and histograms or label counts, variances) is built
    once per metric, on first use, and reused for every release scored
    against this reference; so is the check of its values, once it
    passes. The metric functions and `harness.measure` take a
    `Reference` wherever they take the original dataset.
    """

    __slots__ = ("original", "_terms", "_checked")

    def __init__(self, original: Dataset) -> None:
        self.original = original
        self._terms: dict[Callable, tuple] = {}
        self._checked = False  # whether the original's values passed `check_values`

    def terms(self, build: Callable) -> tuple:
        """`build(original, attr)` of every attribute, built on first use."""
        if build not in self._terms:
            self._terms[build] = tuple(build(self.original, attr) for attr in self.original.schema)
        return self._terms[build]


def as_reference(original: Dataset | Reference) -> Reference:
    """`original` as a `Reference`."""
    return original if isinstance(original, Reference) else Reference(original)


def _released_columns(ref: Reference, released: Dataset | Sequence[ClusterPlan]) -> Sequence:
    """The release, one column or released plan per attribute, checked against `ref`.

    Both sides need the same attributes and record count, at least one
    record, and valid values; a released plan's values are checked per
    cluster. Finite values outside the domain are allowed: a release
    without clamping makes them.
    """
    original = ref.original
    if isinstance(released, Dataset):
        if original.schema.names != released.schema.names:
            raise DataError("datasets have different attributes")
        columns, counts, unit = released.columns, [released.n], "record"
    else:
        if len(released) != original.m:
            raise ValueError(f"expected {original.m} plans, got {len(released)}")
        columns, unit = [plan.centroids for plan in released], "cluster"
        counts = [len(plan.assignments) for plan in released]
    for n in counts:
        if n != original.n:
            raise DataError(f"record counts differ: {original.n} vs {n}")
    if original.n == 0:
        raise DataError("metrics are undefined on an empty dataset")
    if not ref._checked:
        check_values(original.schema, original.columns, bounds=False)
        ref._checked = True
    check_values(original.schema, columns, bounds=False, unit=unit)
    return released.columns if isinstance(released, Dataset) else released


def _score(
    build: Callable,
    score: Callable,
    original: Dataset | Reference,
    released: Dataset | Sequence[ClusterPlan],
) -> dict[str, float | None]:
    """Score each attribute of `released` against the reference terms of `original`.

    `build(original, attr)` gives an attribute's original-side term and
    `score(attr, term, a, b)` its score, where `b` is the released column
    or released plan. Attributes whose term is None (categorical ones,
    for the variance) are left out.
    """
    ref = as_reference(original)
    columns = _released_columns(ref, released)
    return {
        attr.name: score(attr, term, ref.original.column(attr.name), b)
        for attr, term, b in zip(ref.original.schema, ref.terms(build), columns)
        if term is not None
    }


def _per_record(b: np.ndarray | tuple | ClusterPlan) -> np.ndarray | tuple:
    """A released column as it is, or a released plan spread over its records."""
    return b.per_record() if isinstance(b, ClusterPlan) else b


def _re_term(original: Dataset, attr):
    if attr.kind == NUMERIC:
        return attr.sensitivity / SANITY_DIVISOR
    taxonomy = original.schema.taxonomy_for(attr.name)
    return taxonomy, taxonomy.node_ids(original.column(attr.name))


def _re_score(attr, term, a, b) -> float:
    if attr.kind == NUMERIC:
        # |a - b| / max(term, |a|), in place in two n-sized temporaries.
        error = np.subtract(a, _per_record(b))
        np.abs(error, out=error)
        floor = np.abs(a)
        np.maximum(floor, term, out=floor)
        np.divide(error, floor, out=error)
        return float(error.mean())
    taxonomy, a_ids = term
    if isinstance(b, ClusterPlan):
        # One id per cluster, spread over its records.
        b_ids = taxonomy.node_ids(b.centroids)[b.assignments]
    else:
        b_ids = taxonomy.node_ids(b)
    # The builtin left fold, as the scalar loop sums.
    return sum(taxonomy.distances(a_ids, b_ids).tolist()) / len(a)


def relative_error(
    original: Dataset | Reference, released: Dataset | Sequence[ClusterPlan]
) -> tuple[dict[str, float], float]:
    """Mean per-value relative error, per attribute and overall.

    Numeric values score |a - a'| / max(bound, |a|) with
    bound = (upper - lower) / SANITY_DIVISOR, 1 % of the domain width;
    categorical values score their semantic distance, already in [0, 1).
    The dataset figure is the mean of the attribute means.
    """
    per_attr = _score(_re_term, _re_score, original, released)
    return per_attr, float(np.mean(list(per_attr.values())))


def _variance_term(original: Dataset, attr) -> float | None:
    if attr.kind != NUMERIC:
        return None
    return float(np.var(np.asarray(original.column(attr.name))))


def _variance_score(attr, base: float, a, b) -> float | None:
    new = float(np.var(_per_record(b)))
    return None if base == 0.0 else abs(new - base) / base


def variance_delta(
    original: Dataset | Reference, released: Dataset | Sequence[ClusterPlan]
) -> dict[str, float | None]:
    """Relative variance change per numeric attribute.

    |var(released) - var(original)| / var(original) with population
    variances on both sides. Attributes whose original variance is zero
    get None: the ratio is undefined there.
    """
    return _score(_variance_term, _variance_score, original, released)


def jensen_shannon(p: np.ndarray, q: np.ndarray) -> float:
    """Base-2 JSD of two probability vectors; 0*log(0/x) counts as 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mid = 0.5 * (p + q)

    def half(dist: np.ndarray) -> float:
        mask = dist > 0
        return float(np.sum(dist[mask] * np.log2(dist[mask] / mid[mask])))

    return 0.5 * half(p) + 0.5 * half(q)


def _normalised(counts: np.ndarray) -> np.ndarray:
    return counts / counts.sum()


def _binned(attr, edges: np.ndarray, values: np.ndarray, weights=None) -> np.ndarray:
    """Counts of `values`, clipped to `attr`'s domain, in the bins `edges`, as floats.

    Bin i holds edges[i] <= x < edges[i + 1], the last bin also its right
    edge, so the counts equal `np.histogram`'s over the same range. Like
    its uniform-bin path, each bin index is first estimated from the
    domain width, then moved by at most one so that it agrees with
    `edges`, and values are binned _BLOCK at a time, which bounds the
    temporaries. `weights` (cluster sizes) count each value that many
    times. Values must be finite.
    """
    lower, upper = attr.lower, attr.upper
    counts = np.zeros(NUMERIC_BINS)
    for start in range(0, len(values), _BLOCK):
        block = slice(start, start + _BLOCK)
        x = np.clip(values[block], lower, upper)
        idx = ((x - lower) / (upper - lower) * NUMERIC_BINS).astype(np.intp)
        # Only x == upper estimates NUMERIC_BINS; it belongs to the closed last bin.
        np.minimum(idx, NUMERIC_BINS - 1, out=idx)
        idx -= x < edges.take(idx)
        idx += (x >= edges[1:].take(idx)) & (idx != NUMERIC_BINS - 1)
        block_weights = None if weights is None else weights[block]
        counts += np.bincount(idx, weights=block_weights, minlength=NUMERIC_BINS)
    return counts


def _jsd_term(original: Dataset, attr):
    """Numeric: bin edges and binned distribution. Categorical: taxonomy and per-node distribution."""
    column = original.column(attr.name)
    if attr.kind == NUMERIC:
        edges = np.linspace(attr.lower, attr.upper, NUMERIC_BINS + 1)
        return edges, _normalised(_binned(attr, edges, column))
    taxonomy = original.schema.taxonomy_for(attr.name)
    return taxonomy, _normalised(np.bincount(taxonomy.node_ids(column), minlength=len(taxonomy)))


def _jsd_score(attr, term, a, b) -> float:
    # A released plan bins one value per cluster, weighted by its size; a
    # column is its own values. The counts are integers below 2**53, so they
    # normalise to the same bits as the per-record counts of `records`.
    values, sizes = (b.centroids, b.sizes) if isinstance(b, ClusterPlan) else (b, None)
    if attr.kind == NUMERIC:
        edges, p = term
        return jensen_shannon(p, _normalised(_binned(attr, edges, values, sizes)))
    # One bin per taxonomy node, in sorted-label order; empty bins add nothing.
    taxonomy, p = term
    counts = np.bincount(taxonomy.node_ids(values), weights=sizes, minlength=len(taxonomy))
    return jensen_shannon(p, _normalised(counts))


def jsd(
    original: Dataset | Reference, released: Dataset | Sequence[ClusterPlan]
) -> tuple[dict[str, float], float]:
    """Histogram divergence per attribute, in [0, 1], and its mean.

    Numeric attributes use NUMERIC_BINS equal-width bins over the
    attribute domain, with out-of-domain values counted in the nearest
    edge bin; the bin edges are computed once per `Reference`.
    Categorical attributes use one bin per label observed in either
    dataset. Released plans bin one value per cluster, weighted by the
    cluster sizes; the divergence is that of their `records` to the bit.
    """
    per_attr = _score(_jsd_term, _jsd_score, original, released)
    return per_attr, float(np.mean(list(per_attr.values())))
