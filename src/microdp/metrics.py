"""Utility metrics comparing an original dataset against its release.

Three views of distortion: per-value relative error (with a sanity bound
so near-zero originals cannot blow up the ratio), the relative change of
each numeric attribute's variance, and the Jensen-Shannon divergence of
per-attribute histograms.

Every metric is a pair of functions run by one scorer, `_score`: a term
builder for the original-side terms of each attribute, then the score of
the release against them. A `Reference` keeps those terms, so a sweep
that scores many releases of one dataset computes them once: a numeric
attribute's bin edges and histogram, its relative-error floors
max(|a|, bound) and its variance. `measure(original, released)` scores
the three metrics of one release in one `_score` call, attribute by
attribute, and bundles them in a `UtilityReport`, which holds figures
only. A release is scored either as a table (`Dataset`) or as its
released plans (`mechanisms.perturb`), with the same bits: the JSD bins
one value per cluster, weighted by the cluster size (a table's column is
its own values, one per record), and relative error and variance share
one spread of each plan over its records (`ClusterPlan.per_record`),
made once per attribute and dropped before the next. One kernel,
`_binned`, bins every release against a numeric attribute's bin edges.
Both sides must hold finite numeric values and labels of their taxonomy;
a bad value is rejected, naming its record (or cluster) and column. The
metrics score the columns `data.check_values` returns, labels as node
ids, and map no label themselves: a released plan's label centroids are
node ids already, so the check only range-checks them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
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

    def to_json_dict(self) -> dict:
        return asdict(self)


class Reference:
    """The original-side terms of the three metrics, for scoring many releases.

    Everything a metric computes from the original alone (bin edges and
    histograms or label counts, relative-error floors, variances) is
    built once per metric, on first use, and reused for every release
    scored against this reference; so are its checked columns
    (`data.check_values`), once they pass. The metric functions and
    `measure` take a `Reference` wherever they take the original dataset.
    """

    __slots__ = ("original", "_terms", "_columns")

    def __init__(self, original: Dataset) -> None:
        self.original = original
        self._terms: dict[Callable, tuple] = {}
        self._columns: list | None = None  # the original's checked columns, once they pass

    def terms(self, build: Callable) -> tuple:
        """`build(schema, attr, a)` of every attribute and checked column `a`, built on first use."""
        if build not in self._terms:
            schema = self.original.schema
            self._terms[build] = tuple(build(schema, attr, a) for attr, a in zip(schema, self._columns))
        return self._terms[build]


Release = Dataset | Sequence[ClusterPlan]


def _released_columns(ref: Reference, released: Release) -> Sequence:
    """The release's checked columns or released plans, checked against `ref`.

    Both sides need the same attributes and record count, at least one
    record, and valid values; a released plan's values are checked per
    cluster, a label plan's as node ids of its taxonomy, and the plans
    are scored as given. Finite values outside the domain are allowed: a
    release without clamping makes them.
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
    if ref._columns is None:
        ref._columns = check_values(original.schema, original.columns, bounds=False)
    checked = check_values(original.schema, columns, bounds=False, unit=unit)
    return checked if isinstance(released, Dataset) else released


def _score(
    original: Dataset | Reference, released: Release, *metrics: tuple[Callable, Callable]
) -> list[dict[str, float | None]]:
    """Score each attribute of `released` against the reference terms of `original`, per metric.

    Each metric is a pair `(build, score)`: `build(schema, attr, a)` gives
    an attribute's original-side term and `score(attr, term, a, b)` its
    score, where `a` is the original's checked column and `b` the
    release's attribute as a `_Released`. The release is checked once for
    all metrics and scored attribute by attribute, so a released plan is
    spread over its records at most once, for every metric that needs
    it, and dropped before the next attribute's. A `Reference` keeps its
    terms for the next release; the terms of a bare dataset are built
    attribute by attribute and dropped with it, so that one release's
    score holds no more than one attribute's. Attributes whose term is
    None (categorical ones, for the variance) are left out. Returns one
    dict per metric, in the order given.
    """
    kept = isinstance(original, Reference)
    ref = original if kept else Reference(original)
    columns = _released_columns(ref, released)
    schema = ref.original.schema
    terms = [ref.terms(build) for build, _ in metrics] if kept else None
    scores: list[dict[str, float | None]] = [{} for _ in metrics]
    for index, (attr, a, column) in enumerate(zip(schema, ref._columns, columns)):
        b = _Released(column)
        for number, ((build, score), out) in enumerate(zip(metrics, scores)):
            term = terms[number][index] if kept else build(schema, attr, a)
            if term is not None:
                out[attr.name] = score(attr, term, a, b)
            del term  # a bare dataset's term goes before the next is built
    return scores


class _Released:
    """One released attribute: its checked column or released plan, and its records on first use."""

    __slots__ = ("values", "sizes", "_column", "_records")

    def __init__(self, column: np.ndarray | ClusterPlan) -> None:
        # A plan's values are per cluster, weighted by the cluster sizes; a column is its own values.
        plan = isinstance(column, ClusterPlan)
        self.values = column.centroids if plan else column
        self.sizes = column.sizes if plan else None
        self._column = column
        self._records = None if plan else column

    def records(self) -> np.ndarray:
        """The values per record: the column, or the plan spread over its records once."""
        if self._records is None:
            self._records = self._column.per_record()
        return self._records


def _mean(per_attr: Mapping[str, float]) -> float:
    """The dataset figure: the mean of the attribute figures."""
    return float(np.mean(list(per_attr.values())))


def _re_term(schema, attr, a):
    """Numeric: the read-only floors max(|a|, bound). Categorical: the taxonomy."""
    if attr.kind == NUMERIC:
        floor = np.abs(a)
        np.maximum(floor, attr.sensitivity / SANITY_DIVISOR, out=floor)
        floor.flags.writeable = False
        return floor
    return schema.taxonomy_for(attr.name)


def _re_score(attr, term, a, b) -> float:
    if attr.kind == NUMERIC:
        # |a - b| / max(|a|, bound), in place in one n-sized temporary.
        error = np.subtract(a, b.records())
        np.abs(error, out=error)
        np.divide(error, term, out=error)
        return float(error.mean())
    # A left fold, as the scalar loop sums; the builtin `sum` compensates from Python 3.12.
    return float(np.add.accumulate(term.distances(a, b.records()))[-1]) / len(a)


_RELATIVE_ERROR = (_re_term, _re_score)


def relative_error(
    original: Dataset | Reference, released: Release
) -> tuple[dict[str, float], float]:
    """Mean per-value relative error, per attribute and overall.

    Numeric values score |a - a'| / max(bound, |a|) with
    bound = (upper - lower) / SANITY_DIVISOR, 1 % of the domain width;
    categorical values score their semantic distance, already in [0, 1).
    The dataset figure is the mean of the attribute means.
    """
    (per_attr,) = _score(original, released, _RELATIVE_ERROR)
    return per_attr, _mean(per_attr)


def _variance(x: np.ndarray) -> float:
    """`np.var(x)` of a float column, to the bit: the same sums in the same order, without its wrapper."""
    deviations = np.subtract(x, np.add.reduce(x) / len(x))
    np.multiply(deviations, deviations, out=deviations)
    return float(np.add.reduce(deviations) / len(x))


def _variance_term(schema, attr, a) -> float | None:
    return _variance(a) if attr.kind == NUMERIC else None


def _variance_score(attr, base: float, a, b) -> float | None:
    new = _variance(b.records())
    return None if base == 0.0 else abs(new - base) / base


_VARIANCE_DELTA = (_variance_term, _variance_score)


def variance_delta(
    original: Dataset | Reference, released: Release
) -> dict[str, float | None]:
    """Relative variance change per numeric attribute.

    |var(released) - var(original)| / var(original) with population
    variances on both sides. Attributes whose original variance is zero
    get None: the ratio is undefined there.
    """
    (per_attr,) = _score(original, released, _VARIANCE_DELTA)
    return per_attr


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
    width = upper - lower
    # Clipped to just below `upper`, a value sits in the last bin when np.histogram's
    # closed last bin holds it, and no step need keep it from a bin past the last.
    below_upper = math.nextafter(upper, -math.inf)
    tops = edges[1:]
    counts = np.zeros(NUMERIC_BINS)
    for start in range(0, len(values), _BLOCK):
        block = slice(start, start + _BLOCK)
        x = np.clip(values[block], lower, below_upper)
        # np.histogram's estimate, in place; a multiply by NUMERIC_BINS / width
        # would overflow for the widths below about 5.6e-307 that a schema allows.
        estimate = np.subtract(x, lower)
        estimate /= width
        estimate *= NUMERIC_BINS
        idx = estimate.astype(np.intp)
        idx -= x < edges.take(idx)
        idx += x >= tops.take(idx)
        block_weights = None if weights is None else weights[block]
        counts += np.bincount(idx, weights=block_weights, minlength=NUMERIC_BINS)
    return counts


def _jsd_term(schema, attr, a):
    """Numeric: bin edges and binned distribution. Categorical: taxonomy size and per-node distribution."""
    if attr.kind == NUMERIC:
        edges = np.linspace(attr.lower, attr.upper, NUMERIC_BINS + 1)
        return edges, _normalised(_binned(attr, edges, a))
    nodes = len(schema.taxonomy_for(attr.name))
    return nodes, _normalised(np.bincount(a, minlength=nodes))


def _jsd_score(attr, term, a, b) -> float:
    # A released plan bins one value per cluster, weighted by its size; a
    # column is its own values. The counts are integers below 2**53, so they
    # normalise to the same bits as the per-record counts of `records`.
    if attr.kind == NUMERIC:
        edges, p = term
        return jensen_shannon(p, _normalised(_binned(attr, edges, b.values, b.sizes)))
    # One bin per taxonomy node, in sorted-label order; empty bins add nothing.
    nodes, p = term
    return jensen_shannon(p, _normalised(np.bincount(b.values, weights=b.sizes, minlength=nodes)))


_JSD = (_jsd_term, _jsd_score)


def jsd(
    original: Dataset | Reference, released: Release
) -> tuple[dict[str, float], float]:
    """Histogram divergence per attribute, in [0, 1], and its mean.

    Numeric attributes use NUMERIC_BINS equal-width bins over the
    attribute domain, with out-of-domain values counted in the nearest
    edge bin; the bin edges are computed once per `Reference`.
    Categorical attributes use one bin per label observed in either
    dataset. Released plans bin one value per cluster, weighted by the
    cluster sizes; the divergence is that of their `records` to the bit.
    """
    (per_attr,) = _score(original, released, _JSD)
    return per_attr, _mean(per_attr)


def measure(original: Dataset | Reference, released: Release) -> UtilityReport:
    """All metrics of one release; `original` may be its metric `Reference`.

    `released` is the released table or the released plans
    (`mechanisms.perturb`); the figures are the same to the bit, and
    those of `relative_error`, `jsd` and `variance_delta`. The release is
    checked once, and each released plan spread over its records at most
    once, for all three metrics.
    """
    re_attr, jsd_attr, variance_attr = _score(original, released, _RELATIVE_ERROR, _JSD, _VARIANCE_DELTA)
    return UtilityReport(
        re_per_attribute=re_attr,
        re_dataset=_mean(re_attr),
        jsd_per_attribute=jsd_attr,
        jsd_dataset=_mean(jsd_attr),
        variance_delta_per_attribute=variance_attr,
    )
