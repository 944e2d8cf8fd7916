"""Utility metrics comparing an original dataset against its release.

Three views of distortion: per-value relative error (with a sanity bound
so near-zero originals cannot blow up the ratio), the relative change of
each numeric attribute's variance, and the Jensen-Shannon divergence of
per-attribute histograms.

Every metric runs through one scorer in two steps: the original-side
terms of each attribute, then the score of the release against them. A
`Reference` keeps those terms, so a sweep that scores many releases of
one dataset computes them once. A numeric attribute's JSD term holds its
bin edges, and one kernel, `_binned`, bins every release against them.
Given the plans a release was perturbed from, the JSD bins one value per
cluster instead of one per record. Both sides must hold finite numeric
values; a NaN or ±inf is rejected, naming its record and column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Mapping, Sequence

import numpy as np

from .data import NUMERIC, DataError, Dataset, check_finite
from .microagg import ClusterPlan
from .taxonomy import TaxonomyError


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
    against this reference; so is the check that its numeric values are
    finite. The metric functions and `harness.measure` take a
    `Reference` wherever they take the original dataset.
    """

    __slots__ = ("original", "_terms", "_finite")

    def __init__(self, original: Dataset) -> None:
        self.original = original
        self._terms: dict[str, tuple] = {}
        self._finite = False  # whether the original's numeric values were checked

    def terms(self, metric: str) -> tuple:
        """One term per attribute of `metric` ("re", "jsd" or "variance")."""
        if metric not in self._terms:
            build = _METRICS[metric][0]
            self._terms[metric] = tuple(
                build(self.original, attr) for attr in self.original.schema
            )
        return self._terms[metric]


def as_reference(original: Dataset | Reference) -> Reference:
    """`original` as a `Reference`."""
    return original if isinstance(original, Reference) else Reference(original)


def _check_finite(data: Dataset) -> None:
    for attr, column in zip(data.schema, data.columns):
        if attr.kind == NUMERIC:
            check_finite(attr, column)


def _check_comparable(ref: Reference, masked: Dataset) -> None:
    """Same attributes and record count, at least one record, no NaN or ±inf.

    Finite values outside the domain are allowed: a release without
    clamping makes them.
    """
    original = ref.original
    if original.schema.names != masked.schema.names:
        raise DataError("datasets have different attributes")
    if original.n != masked.n:
        raise DataError(f"record counts differ: {original.n} vs {masked.n}")
    if original.n == 0:
        raise DataError("metrics are undefined on an empty dataset")
    if not ref._finite:
        _check_finite(original)
        ref._finite = True
    _check_finite(masked)


def _score(
    metric: str,
    original: Dataset | Reference,
    masked: Dataset,
    plans: Sequence[ClusterPlan] | None = None,
) -> dict[str, float | None]:
    """Score each attribute of `masked` against the reference terms of `original`.

    Attributes whose term is None (categorical ones, for the variance) are
    left out. `plans`, if given, holds the `ClusterPlan` of every attribute.
    """
    ref = as_reference(original)
    _check_comparable(ref, masked)
    if plans is not None and len(plans) != masked.m:
        raise ValueError(f"expected {masked.m} plans, got {len(plans)}")
    score = _METRICS[metric][1]
    return {
        attr.name: score(attr, term, ref.original.column(attr.name), masked.column(attr.name), plan)
        for attr, term, plan in zip(
            ref.original.schema, ref.terms(metric), repeat(None) if plans is None else plans
        )
        if term is not None
    }


def _re_term(original: Dataset, attr):
    if attr.kind == NUMERIC:
        return attr.sensitivity / SANITY_DIVISOR
    taxonomy = original.schema.taxonomy_for(attr.name)
    try:
        return taxonomy, taxonomy.node_ids(original.column(attr.name))
    except TaxonomyError:
        return taxonomy, None


def _re_score(attr, term, a, b, _plan) -> float:
    if attr.kind == NUMERIC:
        return float((np.abs(a - np.asarray(b)) / np.maximum(term, np.abs(a))).mean())
    taxonomy, a_ids = term
    b_ids = None
    if a_ids is not None:
        try:
            b_ids = taxonomy.node_ids(b)
        except TaxonomyError:
            pass
    if b_ids is None:
        # An unknown label: the scalar loop raises the error that names it.
        return sum(taxonomy.semantic_distance(x, y) for x, y in zip(a, b)) / len(a)
    # The builtin left fold, as the scalar loop sums.
    return sum(taxonomy.distances(a_ids, b_ids).tolist()) / len(a)


def relative_error(
    original: Dataset | Reference, masked: Dataset
) -> tuple[dict[str, float], float]:
    """Mean per-value relative error, per attribute and overall.

    Numeric values score |a - a'| / max(bound, |a|) with
    bound = (upper - lower) / SANITY_DIVISOR, 1 % of the domain width;
    categorical values score their semantic distance, already in [0, 1).
    The dataset figure is the mean of the attribute means.
    """
    per_attr = _score("re", original, masked)
    return per_attr, float(np.mean(list(per_attr.values())))


def _variance_term(original: Dataset, attr) -> float | None:
    if attr.kind != NUMERIC:
        return None
    return float(np.var(np.asarray(original.column(attr.name))))


def _variance_score(attr, base: float, a, b, _plan) -> float | None:
    new = float(np.var(np.asarray(b)))
    return None if base == 0.0 else abs(new - base) / base


def variance_delta(original: Dataset | Reference, masked: Dataset) -> dict[str, float | None]:
    """Relative variance change per numeric attribute.

    |var(masked) - var(original)| / var(original) with population
    variances on both sides. Attributes whose original variance is zero
    get None: the ratio is undefined there.
    """
    return _score("variance", original, masked)


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
    """A numeric attribute's bin edges and binned distribution, else its label counts."""
    column = original.column(attr.name)
    if attr.kind == NUMERIC:
        edges = np.linspace(attr.lower, attr.upper, NUMERIC_BINS + 1)
        return edges, _normalised(_binned(attr, edges, column))
    return Counter(column)


def _jsd_score(attr, term, a, b, plan) -> float:
    if attr.kind != NUMERIC:
        support = sorted(term.keys() | set(b))
        masked = Counter(b)
        p = _normalised(np.array([term.get(v, 0) for v in support], dtype=float))
        q = _normalised(np.array([masked.get(v, 0) for v in support], dtype=float))
        return jensen_shannon(p, q)
    edges, p = term
    weights = None
    if plan is not None and plan.n_clusters < len(b):
        # Every record of a cluster holds its cluster's value: bin the value
        # of each cluster's first member once, weighted by the cluster size.
        # The counts are integers below 2**53, so they normalise to the same bits.
        b = b[plan.sorted_indices[::plan.sizes[0]][:plan.n_clusters]]
        weights = plan.sizes
    return jensen_shannon(p, _normalised(_binned(attr, edges, b, weights)))


def jsd(
    original: Dataset | Reference,
    masked: Dataset,
    plans: Sequence[ClusterPlan] | None = None,
) -> tuple[dict[str, float], float]:
    """Histogram divergence per attribute, in [0, 1], and its mean.

    Numeric attributes use NUMERIC_BINS equal-width bins over the
    attribute domain, with out-of-domain values counted in the nearest
    edge bin; the bin edges are computed once per `Reference`.
    Categorical attributes use one bin per label observed in either
    dataset.

    `plans`, one `ClusterPlan` per attribute, must be the plans `masked`
    was released from (`mechanisms.perturb`). With them, a numeric
    attribute bins one value per cluster, weighted by the cluster sizes,
    instead of one per record; the divergence is the same to the bit.
    """
    per_attr = _score("jsd", original, masked, plans)
    return per_attr, float(np.mean(list(per_attr.values())))


# Metric name -> (original-side term of one attribute, score of one attribute
# given its plan or None; only the JSD reads the plan).
_METRICS = {
    "re": (_re_term, _re_score),
    "jsd": (_jsd_term, _jsd_score),
    "variance": (_variance_term, _variance_score),
}
