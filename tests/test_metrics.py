from __future__ import annotations

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdp import (
    METHODS,
    AttributeSchema,
    DataError,
    Dataset,
    MechanismConfig,
    PrivacyBudget,
    Schema,
    Taxonomy,
    jsd,
    relative_error,
    variance_delta,
)
from microdp import harness
from microdp import metrics as metrics_module
from microdp import taxonomy as taxonomy_module
from microdp.data import ClusterColumn
from microdp.mechanisms import execute_release, perturb, release_plans
from microdp.metrics import NUMERIC_BINS, Reference, _binned, jensen_shannon

from conftest import make_numeric_dataset, make_synthetic, random_taxonomy, released_table


def categorical_dataset(chain_tax, labels):
    schema = Schema(
        (AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": chain_tax}
    )
    return Dataset(schema, [tuple(labels)])


class TestRelativeError:
    def test_identity_is_zero(self):
        data = make_numeric_dataset([1.0, 50.0, 99.0])
        per_attr, overall = relative_error(data, data)
        assert per_attr == {"v": 0.0}
        assert overall == 0.0

    def test_plain_ratio_above_sanity_bound(self):
        # domain width 100 gives bound 1, so |a| = 50 is the divisor
        original = make_numeric_dataset([50.0])
        masked = make_numeric_dataset([49.0])
        per_attr, _ = relative_error(original, masked)
        assert per_attr["v"] == pytest.approx(1.0 / 50.0)

    def test_sanity_bound_caps_small_denominators(self):
        original = make_numeric_dataset([0.5])
        masked = make_numeric_dataset([0.0])
        per_attr, _ = relative_error(original, masked)
        # raw ratio would be 1.0; the bound (100 / 100 = 1) takes over
        assert per_attr["v"] == pytest.approx(0.5)

    def test_categorical_uses_semantic_distance(self, chain_tax):
        original = categorical_dataset(chain_tax, ["a", "a"])
        masked = categorical_dataset(chain_tax, ["b", "a"])
        per_attr, _ = relative_error(original, masked)
        expected = chain_tax.semantic_distance("a", "b") / 2
        assert per_attr["c"] == pytest.approx(expected)

    def test_dataset_figure_is_mean_of_attribute_means(self):
        schema = Schema((
            AttributeSchema("p", "numeric", 0.0, 100.0),
            AttributeSchema("q", "numeric", 0.0, 100.0),
        ))
        original = Dataset(schema, [np.array([50.0]), np.array([10.0])])
        masked = Dataset(schema, [np.array([45.0]), np.array([10.0])])
        per_attr, overall = relative_error(original, masked)
        assert overall == pytest.approx((per_attr["p"] + per_attr["q"]) / 2)

    def test_mismatched_inputs_rejected(self):
        a = make_numeric_dataset([1.0, 2.0])
        b = make_numeric_dataset([1.0])
        with pytest.raises(DataError, match="record counts"):
            relative_error(a, b)
        c = make_numeric_dataset([1.0, 2.0], name="other")
        with pytest.raises(DataError, match="different attributes"):
            relative_error(a, c)


def chain_taxonomy(depth: int) -> Taxonomy:
    return Taxonomy("c0", {f"c{i}": f"c{i - 1}" for i in range(1, depth + 1)})


def scalar_relative_error(tax: Taxonomy, a, b) -> float:
    """The per-record semantic-distance loop the metric is defined by, summed left to right.

    An explicit fold: the builtin `sum` of floats is compensated from Python 3.12.
    """
    total = 0.0
    for x, y in zip(a, b):
        total += tax.semantic_distance(x, y)
    return total / len(a)


class TestCategoricalRelativeErrorExactness:
    """The table lookup must equal the scalar semantic-distance loop bit for bit."""

    @pytest.fixture(autouse=True, params=["one block", "many blocks"])
    def block_size(self, request, monkeypatch):
        if request.param == "many blocks":
            monkeypatch.setattr(taxonomy_module, "_BLOCK_CELLS", 5)

    def cases(self):
        rng = np.random.default_rng(77)
        trees = [random_taxonomy(rng, int(size)) for size in rng.integers(1, 200, size=12)]
        trees += [chain_taxonomy(59), chain_taxonomy(299)]
        for tax in trees:
            labels = sorted(tax.nodes)
            n = int(rng.integers(1, 300))
            a = [labels[int(i)] for i in rng.integers(0, len(labels), size=n)]
            b = [labels[int(i)] if rng.random() < 0.7 else a[j]
                 for j, i in enumerate(rng.integers(0, len(labels), size=n))]
            yield tax, a, b

    def test_equals_scalar_loop(self):
        for tax, a, b in self.cases():
            schema = Schema((AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": tax})
            per_attr, _ = relative_error(Dataset(schema, [tuple(a)]), Dataset(schema, [tuple(b)]))
            assert per_attr["c"] == scalar_relative_error(tax, a, b)

    def test_is_a_left_fold_not_a_compensated_sum(self):
        # Three distances whose left fold rounds away from their exact sum.
        tax, a, b = chain_taxonomy(2), ["c0", "c1", "c0"], ["c1", "c2", "c2"]
        distances = [tax.semantic_distance(x, y) for x, y in zip(a, b)]
        assert scalar_relative_error(tax, a, b) != math.fsum(distances) / len(a)
        schema = Schema((AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": tax})
        per_attr, _ = relative_error(Dataset(schema, [tuple(a)]), Dataset(schema, [tuple(b)]))
        assert per_attr["c"] == scalar_relative_error(tax, a, b)

    def test_pairwise_distances_equal_semantic_distance(self):
        for tax, a, b in self.cases():
            got = tax.distances(tax.node_ids(a), tax.node_ids(b)).tolist()
            assert got == [tax.semantic_distance(x, y) for x, y in zip(a, b)]

    @pytest.mark.parametrize("side", ["original", "masked"])
    def test_unknown_label_names_record_and_column(self, chain_tax, side):
        good = ["a", "b", "x"]
        bad = ["a", "zz", "qq"]
        a, b = (bad, good) if side == "original" else (good, bad)
        with pytest.raises(DataError) as metric:
            relative_error(categorical_dataset(chain_tax, a), categorical_dataset(chain_tax, b))
        assert str(metric.value) == "record 1, column 'c': label 'zz' not in taxonomy"


class TestReference:
    def test_scores_equal_those_against_the_dataset(self, chain_tax):
        rng = np.random.default_rng(8)
        original = make_synthetic(n=200, n_uniform=2, n_lognormal=1)
        ref = Reference(original)
        for _ in range(3):
            masked = Dataset(
                original.schema,
                [np.asarray(col) + rng.normal(0.0, 20.0, original.n) for col in original.columns]
            )
            assert relative_error(ref, masked) == relative_error(original, masked)
            assert jsd(ref, masked) == jsd(original, masked)
            assert variance_delta(ref, masked) == variance_delta(original, masked)
        labels = categorical_dataset(chain_tax, ["a", "b", "x", "root"])
        shuffled = categorical_dataset(chain_tax, ["b", "b", "a", "y"])
        assert relative_error(Reference(labels), shuffled) == relative_error(labels, shuffled)
        assert jsd(Reference(labels), shuffled) == jsd(labels, shuffled)

    def test_comparability_is_checked_against_the_original(self):
        ref = Reference(make_numeric_dataset([1.0, 2.0]))
        with pytest.raises(DataError, match="record counts"):
            relative_error(ref, make_numeric_dataset([1.0]))


class TestVarianceDelta:
    def test_identity_is_zero(self):
        data = make_numeric_dataset([1.0, 2.0, 3.0])
        assert variance_delta(data, data) == {"v": 0.0}

    def test_known_ratio(self):
        original = make_numeric_dataset([0.0, 2.0])   # population variance 1
        masked = make_numeric_dataset([0.0, 4.0])     # population variance 4
        assert variance_delta(original, masked)["v"] == pytest.approx(3.0)

    def test_collapse_to_constant_gives_one(self):
        original = make_numeric_dataset([0.0, 2.0])
        masked = make_numeric_dataset([1.0, 1.0])
        assert variance_delta(original, masked)["v"] == pytest.approx(1.0)

    def test_zero_original_variance_is_none(self):
        original = make_numeric_dataset([5.0, 5.0])
        masked = make_numeric_dataset([4.0, 6.0])
        assert variance_delta(original, masked) == {"v": None}

    def test_categorical_attributes_are_skipped(self, chain_tax):
        original = categorical_dataset(chain_tax, ["a", "b"])
        assert variance_delta(original, original) == {}


class TestJensenShannon:
    def test_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert jensen_shannon(p, p) == 0.0

    def test_disjoint_support_is_one(self):
        assert jensen_shannon([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_point_mass_versus_fair_coin(self):
        value = jensen_shannon([1.0, 0.0], [0.5, 0.5])
        assert value == pytest.approx(0.3112781, abs=1e-5)

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.random(8)
            q = rng.random(8)
            p, q = p / p.sum(), q / q.sum()
            assert jensen_shannon(p, q) == jensen_shannon(q, p)

    def test_bounded_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = rng.random(6)
            q = rng.random(6)
            value = jensen_shannon(p / p.sum(), q / q.sum())
            assert 0.0 <= value <= 1.0 + 1e-12


class TestJsdOnDatasets:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(2)
        data = make_numeric_dataset(rng.uniform(0, 100, 500))
        per_attr, overall = jsd(data, data)
        assert per_attr["v"] == 0.0 and overall == 0.0

    def test_continuous_mode_bins_by_domain(self):
        # values 0.2 and 0.7 apart land in different bins of [0, 100] only
        # when the release moves mass across a bin edge
        original = make_numeric_dataset([10.4] * 100)
        same_bin = make_numeric_dataset([10.6] * 100)
        other_bin = make_numeric_dataset([11.4] * 100)
        assert jsd(original, same_bin)[0]["v"] == 0.0
        assert jsd(original, other_bin)[0]["v"] == pytest.approx(1.0)

    def test_out_of_domain_mass_goes_to_edge_bins(self):
        # releases made without clamping can leave the domain; that mass
        # counts in the nearest edge bin instead of vanishing
        original = make_numeric_dataset([0.2] * 10)
        below = Dataset(original.schema, [np.full(10, -5.0)])
        above = Dataset(original.schema, [np.full(10, 250.0)])
        assert jsd(original, below)[0]["v"] == 0.0
        assert jsd(original, above)[0]["v"] == pytest.approx(1.0)

    def test_symmetry_on_datasets(self):
        rng = np.random.default_rng(3)
        a = make_numeric_dataset(rng.uniform(0, 100, 300))
        b = make_numeric_dataset(rng.uniform(0, 100, 300))
        assert jsd(a, b)[0]["v"] == jsd(b, a)[0]["v"]

    def test_categorical_uses_observed_support(self, chain_tax):
        original = categorical_dataset(chain_tax, ["a", "a", "b", "b"])
        masked = categorical_dataset(chain_tax, ["a", "a", "a", "b"])
        per_attr, _ = jsd(original, masked)
        expected = jensen_shannon([0.5, 0.5], [0.75, 0.25])
        assert per_attr["c"] == pytest.approx(expected)

    def test_range_bound_under_noise(self):
        rng = np.random.default_rng(4)
        a = make_numeric_dataset(rng.uniform(0, 100, 200))
        b = make_numeric_dataset(rng.uniform(0, 100, 200))
        _, overall = jsd(a, b)
        assert 0.0 <= overall <= 1.0


class TestNonFiniteValues:
    """NaN and ±inf are rejected on either side, naming the first bad record."""

    METRICS = (relative_error, jsd, variance_delta)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("value, shown", [
        (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    ])
    def test_released_side(self, metric, value, shown):
        original = make_numeric_dataset([1.0, 2.0, 3.0, 4.0], 0.0, 10.0)
        masked = make_numeric_dataset([1.0, 2.0, value, value], 0.0, 10.0)
        with pytest.raises(DataError) as err:
            metric(original, masked)
        assert str(err.value) == f"record 2, column 'v': value {shown} is not finite"

    @pytest.mark.parametrize("metric", METRICS)
    def test_original_side_every_time(self, metric):
        ref = Reference(make_numeric_dataset([1.0, float("nan"), 3.0], 0.0, 10.0))
        masked = make_numeric_dataset([1.0, 2.0, 3.0], 0.0, 10.0)
        for _ in range(2):
            with pytest.raises(DataError, match=r"^record 1, column 'v': value nan is not finite$"):
                metric(ref, masked)


def measure_all(original, masked):
    """`harness.measure` as a metric: every figure of a two-attribute release."""
    return harness.measure(original, masked)


class TestValueBoundary:
    """Every metric and `measure` check both tables with `data.check_values`."""

    SCORERS = (relative_error, jsd, variance_delta, measure_all)

    @staticmethod
    def mixed(chain_tax, values, labels, numeric_first=True):
        numeric = AttributeSchema("v", "numeric", 0.0, 10.0)
        categorical = AttributeSchema("c", "categorical", taxonomy_ref="t")
        columns = [np.asarray(values, dtype=float), tuple(labels)]
        attrs = (numeric, categorical)
        if not numeric_first:
            attrs, columns = attrs[::-1], columns[::-1]
        return Dataset(Schema(attrs, {"t": chain_tax}), columns)

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("side", ["original", "masked"])
    def test_unknown_label_is_named(self, chain_tax, scorer, side):
        good = self.mixed(chain_tax, [1.0, 2.0, 3.0], ["a", "b", "x"])
        bad = self.mixed(chain_tax, [1.0, 2.0, 3.0], ["a", "zz", "qq"])
        original, masked = (bad, good) if side == "original" else (good, bad)
        with pytest.raises(DataError, match=r"^record 1, column 'c': label 'zz' not in taxonomy$"):
            scorer(original, masked)

    @pytest.mark.parametrize("scorer", SCORERS)
    def test_original_side_every_time(self, chain_tax, scorer):
        ref = Reference(self.mixed(chain_tax, [1.0, 2.0, 3.0], ["a", "b", "zz"]))
        masked = self.mixed(chain_tax, [1.0, 2.0, 3.0], ["a", "b", "x"])
        for _ in range(2):
            with pytest.raises(DataError, match=r"^record 2, column 'c': label 'zz' not in taxonomy$"):
                scorer(ref, masked)

    @pytest.mark.parametrize("scorer", SCORERS)
    @pytest.mark.parametrize("numeric_first, named", [
        (True, r"record 2, column 'v': value nan is not finite"),
        (False, r"record 0, column 'c': label 'zz' not in taxonomy"),
    ], ids=["numeric first", "label first"])
    def test_first_bad_attribute_in_schema_order(self, chain_tax, scorer, numeric_first, named):
        good = self.mixed(chain_tax, [1.0, 2.0, 3.0], ["a", "b", "x"], numeric_first)
        bad = self.mixed(chain_tax, [1.0, 2.0, float("nan")], ["zz", "b", "x"], numeric_first)
        for original, masked in ((bad, good), (good, bad)):
            with pytest.raises(DataError, match=f"^{named}$"):
                scorer(original, masked)

    @pytest.mark.parametrize("as_plans", [False, True], ids=["table", "plans"])
    def test_measure_checks_the_release_once(self, chain_tax, monkeypatch, as_plans):
        data = self.mixed(chain_tax, [1.0, 2.0, 3.0, 4.0], ["a", "b", "x", "a"])
        cfg = MechanismConfig("ir-dp", 2, PrivacyBudget(1.0, m=2), seed=0)
        released = list(perturb(data, list(release_plans(data, "ir-dp", 2)), cfg))
        if not as_plans:
            released = released_table(data, released)
        calls = []
        check = metrics_module.check_values
        monkeypatch.setattr(
            metrics_module, "check_values",
            lambda schema, columns, **kw: calls.append(columns) or check(schema, columns, **kw),
        )
        expected = harness.measure(data, released)
        ref = Reference(data)
        for original in (data, ref, ref):
            calls.clear()
            assert harness.measure(original, released) == expected
            assert sum(columns is not data.columns for columns in calls) == 1
        # The public metrics keep their own check.
        calls.clear()
        for metric in (relative_error, jsd, variance_delta):
            metric(ref, released)
        assert len(calls) == 3

    @staticmethod
    def release(data, as_plans):
        cfg = MechanismConfig("ir-dp", 2, PrivacyBudget(1.0, m=2), seed=0)
        released = list(perturb(data, list(release_plans(data, "ir-dp", 2)), cfg))
        return released if as_plans else released_table(data, released)

    @pytest.mark.parametrize("as_plans", [False, True], ids=["table", "plans"])
    def test_measure_maps_each_label_column_once_per_side(self, chain_tax, monkeypatch, as_plans):
        data = self.mixed(chain_tax, [1.0, 2.0, 3.0, 4.0], ["a", "b", "x", "a"])
        released = self.release(data, as_plans)
        expected = harness.measure(data, released)
        calls = []
        node_ids = Taxonomy.node_ids
        monkeypatch.setattr(
            Taxonomy, "node_ids", lambda tax, labels: calls.append(labels) or node_ids(tax, labels)
        )
        ref = Reference(data)
        # The original's column and a table's, then a table's alone: released
        # plans hold node ids already and are scored as given.
        release_maps = 0 if as_plans else 1
        for original, maps in ((data, 1 + release_maps), (ref, 1 + release_maps), (ref, release_maps)):
            calls.clear()
            assert harness.measure(original, released) == expected
            assert len(calls) == maps


# Domains for the binning kernel: integral, signed, tiny, a width of a few
# hundred ulps, where the edges sit a few ulps apart, and the extremes a
# schema allows: a huge width and one whose NUMERIC_BINS / width overflows.
DOMAINS = [
    (0.0, 1000.0), (-3.7, 12.9), (1e-9, 3e-9), (17.0, 17.0 + 1e-12),
    (0.0, 1e-6), (-1e307, 1e307), (0.0, 1e-310),
]


def histogram_counts(lower, upper, values, weights=None):
    """The reference the kernel must equal: numpy's histogram of the clipped values."""
    clipped = np.clip(values, lower, upper)
    return np.histogram(clipped, bins=NUMERIC_BINS, range=(lower, upper), weights=weights)[0]


def kernel_counts(lower, upper, values, weights=None):
    """`_binned`'s counts, which must not change when it bins 7 values at a time."""
    attr = AttributeSchema("v", "numeric", lower, upper)
    edges = np.linspace(lower, upper, NUMERIC_BINS + 1)
    values = np.asarray(values, dtype=float)
    counts = _binned(attr, edges, values, weights)
    with mock.patch.object(metrics_module, "_BLOCK", 7):
        assert (_binned(attr, edges, values, weights) == counts).all()
    return counts


def edge_values(lower, upper):
    """Every edge, its float neighbours on both sides, and values outside the domain."""
    edges = np.linspace(lower, upper, NUMERIC_BINS + 1)
    width = upper - lower
    return np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        [lower - width, upper + width, -1e300, 1e300, np.nextafter(0.0, 1.0), 0.0, -0.0],
    ])


class TestBinningKernel:
    """`_binned` counts exactly what `np.histogram` counts over the clipped values."""

    @pytest.mark.parametrize("lower, upper", DOMAINS)
    def test_edges_and_their_neighbours(self, lower, upper):
        values = edge_values(lower, upper)
        assert (kernel_counts(lower, upper, values) == histogram_counts(lower, upper, values)).all()

    @pytest.mark.parametrize("lower, upper", DOMAINS)
    def test_random_values(self, lower, upper):
        rng = np.random.default_rng(11)
        width = upper - lower
        values = np.concatenate([
            rng.uniform(lower, upper, 5000), rng.uniform(lower - width, upper + width, 1000),
        ])
        weights = rng.integers(1, 20, values.size)
        assert (kernel_counts(lower, upper, values) == histogram_counts(lower, upper, values)).all()
        assert (
            kernel_counts(lower, upper, values, weights)
            == histogram_counts(lower, upper, values, weights)
        ).all()

    @given(data=st.data(), domain=st.sampled_from(DOMAINS))
    @settings(max_examples=200, deadline=None)
    def test_property(self, data, domain):
        lower, upper = domain
        width = upper - lower
        value = st.one_of(
            st.sampled_from(edge_values(lower, upper).tolist()),
            st.floats(lower - width, upper + width),
            st.floats(allow_nan=False, allow_infinity=False),
        )
        values = np.array(data.draw(st.lists(value, min_size=1, max_size=60)))
        weights = np.array(data.draw(st.lists(
            st.integers(1, 2 ** 20), min_size=values.size, max_size=values.size,
        )))
        assert (kernel_counts(lower, upper, values) == histogram_counts(lower, upper, values)).all()
        assert (
            kernel_counts(lower, upper, values, weights)
            == histogram_counts(lower, upper, values, weights)
        ).all()


class TestVariance:
    @pytest.mark.parametrize("case", ["uniform", "offset", "constant", "one", "signed-zeros", "wide"])
    def test_equals_numpys_to_the_bit(self, case):
        rng = np.random.default_rng(29)
        x = {
            "uniform": rng.uniform(0.0, 1000.0, 10_007),
            "offset": 1e9 + rng.uniform(-1.0, 1.0, 5_000),
            "constant": np.full(300, 0.1),
            "one": np.array([3.7]),
            "signed-zeros": rng.choice([-0.0, 0.0, 1e-300], 999),
            "wide": rng.uniform(-1e150, 1e150, 70_000),
        }[case]
        assert np.float64(metrics_module._variance(x)).tobytes() == np.var(x).tobytes()


class TestOneSpreadPerAttribute:
    @pytest.mark.parametrize("categorical", [False, True], ids=["numeric", "mixed"])
    def test_measure_spreads_each_released_plan_once(self, chain_tax, monkeypatch, categorical):
        data = TestPerClusterJsd.table(chain_tax, 41, categorical)
        ref = Reference(data)
        cfg = MechanismConfig("ir-dp", 3, PrivacyBudget(1.0, data.m), seed=4)
        released = list(perturb(data, list(release_plans(data, "ir-dp", 3)), cfg))
        expected = harness.measure(ref, released_table(data, released))
        calls = []
        per_record = ClusterColumn.per_record
        monkeypatch.setattr(ClusterColumn, "per_record", lambda column: calls.append(column) or per_record(column))
        for original in (data, ref):
            calls.clear()
            assert harness.measure(original, released) == expected
            assert len(calls) == data.m


class TestPerClusterJsd:
    """Every metric of the released columns equals that of their records, exactly."""

    N = 41  # no k > 1 below divides it, so the last cluster is larger

    @staticmethod
    def table(chain_tax, n, categorical):
        rng = np.random.default_rng(19)
        attrs = [
            AttributeSchema("p", "numeric", 0.0, 100.0),
            AttributeSchema("q", "numeric", -3.7, 12.9),
        ]
        columns = [rng.uniform(0.0, 100.0, n), np.round(rng.uniform(-3.7, 12.9, n), 1)]
        if categorical:
            attrs.append(AttributeSchema("c", "categorical", taxonomy_ref="t"))
            columns.append(tuple(rng.choice(["a", "b", "x", "y"], n)))
        return Dataset(Schema(tuple(attrs), {"t": chain_tax}), columns)

    @staticmethod
    def bare(data):
        """The released columns of `ir-only` at k 3: every plan's centroids as they are."""
        cfg = MechanismConfig("ir-only", 3, PrivacyBudget(1.0, data.m), 0)
        return execute_release(cfg, data, table=False)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("clamp", [True, False])
    def test_equals_per_record(self, chain_tax, method, k, clamp):
        data = self.table(chain_tax, self.N, categorical=not method.startswith("mv-"))
        ref = Reference(data)
        plans = list(release_plans(data, method, k))
        assert data.n % k != 0 or k == 1
        for seed in range(3):
            cfg = MechanismConfig(method, k, PrivacyBudget(0.5, data.m), seed, clamp)
            released = list(perturb(data, plans, cfg))
            table = released_table(data, released)
            for metric in (relative_error, jsd, variance_delta):
                assert metric(ref, released) == metric(ref, table)
                assert metric(data, released) == metric(data, table)

    def test_plans_must_cover_every_attribute(self, chain_tax):
        data = self.table(chain_tax, self.N, categorical=True)
        released = self.bare(data)
        with pytest.raises(ValueError, match="expected 3 columns, got 2"):
            jsd(data, released[:2])

    def test_plans_of_another_table_are_rejected(self, chain_tax):
        data = self.table(chain_tax, self.N, categorical=True)
        other = self.table(chain_tax, self.N + 1, categorical=True)
        released = self.bare(other)
        for metric in (relative_error, jsd, variance_delta):
            with pytest.raises(DataError, match=r"^record counts differ: 41 vs 42$"):
                metric(data, released)

    @pytest.mark.parametrize("value, shown", [(float("nan"), "nan"), (float("inf"), "inf")])
    def test_released_values_are_checked_per_cluster(self, chain_tax, value, shown):
        data = self.table(chain_tax, self.N, categorical=True)
        released = self.bare(data)
        values = np.array(released[1].values)
        values[4] = value
        bad = [released[0], replace(released[1], values=values), released[2]]
        for metric in (relative_error, jsd, variance_delta):
            with pytest.raises(DataError, match=rf"^cluster 4, column 'q': value {shown} is not finite$"):
                metric(data, bad)
        # A released label column's values are node ids, range-checked against the taxonomy.
        for wrong in (len(chain_tax), -1):
            ids = np.array(released[2].values)
            ids[2] = wrong
            bad = [*released[:2], replace(released[2], values=ids)]
            with pytest.raises(DataError, match=rf"^cluster 2, column 'c': node id {wrong} not in taxonomy$"):
                jsd(data, bad)
