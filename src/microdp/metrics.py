"""Utility metrics comparing an original dataset against its release.

Three views of distortion: per-value relative error (with a sanity bound
so near-zero originals cannot blow up the ratio), the relative change of
each numeric attribute's variance, and the Jensen-Shannon divergence of
per-attribute histograms.

`measure(original, released)` scores the three metrics of one release in
one straight pass, attribute by attribute, and bundles them in a
`UtilityReport`, which holds figures only; `relative_error`, `jsd` and
`variance_delta` are its figures, one metric each. Each attribute is
scored against the original-side terms (`_terms`): a numeric
attribute's bin edges and histogram, its variance and its relative-error
floors max(|a|, bound), a label attribute's taxonomy and per-node
distribution. A `Reference` keeps those terms, so a sweep that scores
many releases of one dataset computes them once; against a bare dataset
they are built attribute by attribute and dropped before the next, and
the floors only once relative error needs them. A release is scored
either as a table (`Dataset`) or as its released columns
(`mechanisms.perturb`), with the same bits: the JSD bins one value per
cluster, weighted by the cluster size (a column whose clusters each hold
one record bins unweighted, as a table's column, its own values one per
record, does), and relative error and variance share one spread of each
released column over its records (`ClusterColumn.per_record`), made once
per attribute and dropped before the next; relative error is scored
last, in the spread's own buffer, so a released numeric column holds two
n-sized arrays at once, the spread and the floors. One kernel,
`_binned`, bins every release against a numeric attribute's bin edges.
Sums and means are `np.add.reduce(x)` and `np.add.reduce(x) / n`, which
are numpy's sum and mean, to the bit, without their wrappers. Released
columns must pass `data.check_columns`, the one column-set check, and
both sides must hold finite numeric values and labels of their
taxonomy; a bad value is rejected, naming its record (or cluster) and
column. The metrics score the columns `data.check_values` returns,
labels as node ids, and map no label themselves: a released label
column's values are node ids already, so the check only range-checks
them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import NUMERIC, ClusterColumn, DataError, Dataset, check_columns, check_values


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

    Every attribute's terms (`_terms`, the relative-error floors
    included) are built on first use and reused for every release
    scored against this reference; so are its checked columns
    (`data.check_values`), once they pass. The metric functions and
    `measure` take a `Reference` wherever they take the original dataset.
    """

    __slots__ = ("original", "_terms", "_columns")

    def __init__(self, original: Dataset) -> None:
        self.original = original
        self._terms: list[tuple] | None = None  # every attribute's terms, once built
        self._columns: list | None = None  # the original's checked columns, once they pass


Release = Dataset | Sequence[ClusterColumn]


def _released_columns(ref: Reference, released: Release) -> Sequence:
    """The release's checked columns, or its released columns checked, against `ref`.

    Both sides need the same attributes and record count, at least one
    record, and valid values; released columns pass `data.check_columns`,
    their values are checked per cluster, a label column's as node ids,
    and they are scored as given. Finite values outside the domain are
    allowed: a release without clamping makes them.
    """
    original = ref.original
    if isinstance(released, Dataset):
        if original.schema.names != released.schema.names:
            raise DataError("datasets have different attributes")
        columns, n, unit = released.columns, released.n, "record"
    else:
        n = check_columns(original.schema, released)
        columns, unit = [column.values for column in released], "cluster"
    if n != original.n:
        raise DataError(f"record counts differ: {original.n} vs {n}")
    if original.n == 0:
        raise DataError("metrics are undefined on an empty dataset")
    if ref._columns is None:
        ref._columns = check_values(original.schema, original.columns, bounds=False)
    checked = check_values(original.schema, columns, bounds=False, unit=unit)
    return checked if isinstance(released, Dataset) else released


def _terms(schema, attr, a: np.ndarray, *, floors: bool) -> tuple:
    """The original-side terms of attribute `attr`, whose checked column is `a`.

    Numeric: the bin edges, the binned distribution, the variance and,
    with `floors`, the read-only relative-error floors (else None).
    Categorical: the taxonomy and the per-node distribution.
    """
    if attr.kind == NUMERIC:
        edges = np.linspace(attr.lower, attr.upper, NUMERIC_BINS + 1)
        return (
            edges, _normalised(_binned(attr, edges, a)), _variance(a),
            _floors(attr, a) if floors else None,
        )
    taxonomy = schema.taxonomy_for(attr.name)
    return taxonomy, _normalised(np.bincount(a, minlength=len(taxonomy)))


def _floors(attr, a: np.ndarray) -> np.ndarray:
    """The relative-error floors max(|a|, bound), read-only."""
    floor = np.abs(a)
    np.maximum(floor, attr.sensitivity / SANITY_DIVISOR, out=floor)
    floor.flags.writeable = False
    return floor


def _mean(per_attr: Mapping[str, float]) -> float:
    """The dataset figure: the mean of the attribute figures."""
    return float(np.add.reduce(list(per_attr.values())) / len(per_attr))


def _variance(x: np.ndarray) -> float:
    """`np.var(x)` of a float column, to the bit: the same sums in the same order, without its wrapper."""
    deviations = np.subtract(x, np.add.reduce(x) / len(x))
    np.multiply(deviations, deviations, out=deviations)
    return float(np.add.reduce(deviations) / len(x))


def jensen_shannon(p: np.ndarray, q: np.ndarray) -> float:
    """Base-2 JSD of two probability vectors; 0*log(0/x) counts as 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mid = p + q
    mid *= 0.5
    halves = []
    for dist in (p, q):
        mask = dist > 0
        dist = dist[mask]
        halves.append(float(np.add.reduce(dist * np.log2(dist / mid[mask]))))
    return 0.5 * halves[0] + 0.5 * halves[1]


def _normalised(counts: np.ndarray) -> np.ndarray:
    return counts / np.add.reduce(counts)


def _binned(attr, edges: np.ndarray, values: np.ndarray, weights=None) -> np.ndarray:
    """Counts of `values`, clipped to `attr`'s domain, in the bins `edges`.

    Bin i holds edges[i] <= x < edges[i + 1], the last bin also its right
    edge, so the counts equal `np.histogram`'s over the same range. Like
    its uniform-bin path, each bin index is first estimated from the
    domain width, then moved by at most one so that it agrees with
    `edges`, and more than _BLOCK values are binned _BLOCK at a time,
    which bounds the temporaries. `weights` (cluster sizes) count each
    value that many times, as floats; without them the counts are
    integers. Either way they are whole numbers below 2**53, exact in any
    order of summing. Values must be finite.
    """
    if len(values) > _BLOCK:
        return sum(
            _binned(attr, edges, values[start:start + _BLOCK],
                    None if weights is None else weights[start:start + _BLOCK])
            for start in range(0, len(values), _BLOCK)
        )
    lower, upper = attr.lower, attr.upper
    # Clipped to just below `upper`, a value sits in the last bin when np.histogram's
    # closed last bin holds it, and no step need keep it from a bin past the last.
    x = values.clip(lower, math.nextafter(upper, -math.inf))
    # np.histogram's estimate, in place; a multiply by NUMERIC_BINS / width
    # would overflow for the widths below about 5.6e-307 that a schema allows.
    estimate = np.subtract(x, lower)
    estimate /= upper - lower
    estimate *= NUMERIC_BINS
    idx = estimate.astype(np.intp)
    idx -= x < edges.take(idx)
    idx += x >= edges[1:].take(idx)
    return np.bincount(idx, weights=weights, minlength=NUMERIC_BINS)


def measure(original: Dataset | Reference, released: Release) -> UtilityReport:
    """All metrics of one release; `original` may be its metric `Reference`.

    `released` is the released table or the released columns
    (`mechanisms.perturb`); the figures are the same to the bit. The
    release is checked once, and each attribute scored in one pass:
    the JSD of its values (a released column's per cluster, weighted by
    the cluster sizes), then the variance and relative error of its
    records (a released column spread over them once, relative error
    last, in the spread's buffer).
    """
    kept = isinstance(original, Reference)
    ref = original if kept else Reference(original)
    columns = _released_columns(ref, released)
    schema, n = ref.original.schema, ref.original.n
    if kept and ref._terms is None:
        ref._terms = [_terms(schema, attr, a, floors=True) for attr, a in zip(schema, ref._columns)]
    re_attr: dict[str, float] = {}
    jsd_attr: dict[str, float] = {}
    variance_attr: dict[str, float | None] = {}
    for index, (attr, a, column) in enumerate(zip(schema, ref._columns, columns)):
        terms = ref._terms[index] if kept else _terms(schema, attr, a, floors=False)
        clustered = isinstance(column, ClusterColumn)
        values = column.values if clustered else column
        # Cluster sizes weight a released column's values, unless every cluster holds
        # one record (n clusters); the records themselves need not be in cluster order.
        sizes = column.sizes if clustered and len(column.sizes) < n else None
        if attr.kind == NUMERIC:
            edges, p, base, floor = terms
            jsd_attr[attr.name] = jensen_shannon(p, _normalised(_binned(attr, edges, values, sizes)))
            records = column.per_record() if clustered else column
            new = _variance(records)
            variance_attr[attr.name] = None if base == 0.0 else abs(new - base) / base
            # |a - b| / max(|a|, bound), in place in one n-sized array: a released
            # column's spread, a fresh gather it may overwrite, or a fresh one for a
            # table's column, which is the caller's.
            if clustered:
                records.flags.writeable = True
            error = np.subtract(a, records, out=records if clustered else None)
            del records
            np.abs(error, out=error)
            # Against a bare dataset the floors live only for this divide: two n-sized arrays.
            np.divide(error, _floors(attr, a) if floor is None else floor, out=error)
            re_attr[attr.name] = float(np.add.reduce(error) / n)
            del error  # before the next attribute's spread
        else:
            taxonomy, p = terms
            counts = np.bincount(values, weights=sizes, minlength=len(taxonomy))
            jsd_attr[attr.name] = jensen_shannon(p, _normalised(counts))
            records = column.per_record() if clustered else column
            # A left fold, as the scalar loop sums; the builtin `sum` compensates from Python 3.12.
            re_attr[attr.name] = float(np.add.accumulate(taxonomy.distances(a, records))[-1]) / n
            del records
    return UtilityReport(
        re_per_attribute=re_attr,
        re_dataset=_mean(re_attr),
        jsd_per_attribute=jsd_attr,
        jsd_dataset=_mean(jsd_attr),
        variance_delta_per_attribute=variance_attr,
    )


def relative_error(
    original: Dataset | Reference, released: Release
) -> tuple[dict[str, float], float]:
    """Mean per-value relative error, per attribute and overall: `measure`'s figures.

    Numeric values score |a - a'| / max(bound, |a|) with
    bound = (upper - lower) / SANITY_DIVISOR, 1 % of the domain width;
    categorical values score their semantic distance, already in [0, 1).
    The dataset figure is the mean of the attribute means.
    """
    report = measure(original, released)
    return report.re_per_attribute, report.re_dataset


def variance_delta(
    original: Dataset | Reference, released: Release
) -> dict[str, float | None]:
    """Relative variance change per numeric attribute: `measure`'s figures.

    |var(released) - var(original)| / var(original) with population
    variances on both sides. Attributes whose original variance is zero
    get None: the ratio is undefined there.
    """
    return measure(original, released).variance_delta_per_attribute


def jsd(
    original: Dataset | Reference, released: Release
) -> tuple[dict[str, float], float]:
    """Histogram divergence per attribute, in [0, 1], and its mean: `measure`'s figures.

    Numeric attributes use NUMERIC_BINS equal-width bins over the
    attribute domain, with out-of-domain values counted in the nearest
    edge bin; the bin edges are computed once per `Reference`.
    Categorical attributes use one bin per label observed in either
    dataset. Released columns bin one value per cluster, weighted by the
    cluster sizes; the divergence is that of their table to the bit.
    """
    report = measure(original, released)
    return report.jsd_per_attribute, report.jsd_dataset
