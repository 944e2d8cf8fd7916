"""Utility metrics comparing an original dataset against its release.

Three views of distortion: per-value relative error (with a sanity bound
so near-zero originals cannot blow up the ratio), the relative change of
each numeric attribute's variance, and the Jensen-Shannon divergence of
per-attribute histograms.

Every metric runs through one scorer in two steps: the original-side
terms of each attribute, then the score of the release against them. A
`Reference` keeps those terms, so a sweep that scores many releases of
one dataset computes them once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import NUMERIC, DataError, Dataset
from .taxonomy import TaxonomyError


# The relative-error floor is the domain width / SANITY_DIVISOR.
SANITY_DIVISOR = 100.0
# Equal-width histogram bins per numeric attribute for the JSD.
NUMERIC_BINS = 100


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
    ids, histograms or label counts, variances) is built once per metric,
    on first use, and reused for every release scored against this
    reference. The metric functions and `harness.measure` take a
    `Reference` wherever they take the original dataset.
    """

    __slots__ = ("original", "_terms")

    def __init__(self, original: Dataset) -> None:
        self.original = original
        self._terms: dict[str, tuple] = {}

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


def _check_comparable(original: Dataset, masked: Dataset) -> None:
    if original.schema.names != masked.schema.names:
        raise DataError("datasets have different attributes")
    if original.n != masked.n:
        raise DataError(f"record counts differ: {original.n} vs {masked.n}")
    if original.n == 0:
        raise DataError("metrics are undefined on an empty dataset")


def _score(metric: str, original: Dataset | Reference, masked: Dataset) -> dict[str, float | None]:
    """Score each attribute of `masked` against the reference terms of `original`.

    Attributes whose term is None (categorical ones, for the variance) are
    left out.
    """
    ref = as_reference(original)
    _check_comparable(ref.original, masked)
    score = _METRICS[metric][1]
    return {
        attr.name: score(attr, term, ref.original.column(attr.name), masked.column(attr.name))
        for attr, term in zip(ref.original.schema, ref.terms(metric))
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


def _re_score(attr, term, a, b) -> float:
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


def _variance_score(attr, base: float, a, b) -> float | None:
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


def _binned(attr, column) -> np.ndarray:
    clipped = np.clip(np.asarray(column), attr.lower, attr.upper)
    counts, _ = np.histogram(clipped, bins=NUMERIC_BINS, range=(attr.lower, attr.upper))
    return _normalised(counts.astype(float))


def _jsd_term(original: Dataset, attr):
    """The binned distribution of a numeric attribute, else its label counts."""
    column = original.column(attr.name)
    if attr.kind == NUMERIC:
        return _binned(attr, column)
    return Counter(column)


def _jsd_score(attr, term, a, b) -> float:
    if isinstance(term, Counter):
        support = sorted(term.keys() | set(b))
        masked = Counter(b)
        p = _normalised(np.array([term.get(v, 0) for v in support], dtype=float))
        q = _normalised(np.array([masked.get(v, 0) for v in support], dtype=float))
        return jensen_shannon(p, q)
    return jensen_shannon(term, _binned(attr, b))


def jsd(original: Dataset | Reference, masked: Dataset) -> tuple[dict[str, float], float]:
    """Histogram divergence per attribute, in [0, 1], and its mean.

    Numeric attributes use NUMERIC_BINS equal-width bins over the
    attribute domain, with out-of-domain values counted in the nearest
    edge bin. Categorical attributes use one bin per label observed in
    either dataset.
    """
    per_attr = _score("jsd", original, masked)
    return per_attr, float(np.mean(list(per_attr.values())))


# Metric name -> (original-side term of one attribute, score of one attribute).
_METRICS = {
    "re": (_re_term, _re_score),
    "jsd": (_jsd_term, _jsd_score),
    "variance": (_variance_term, _variance_score),
}
