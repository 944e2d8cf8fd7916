from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdp import microagg
from microdp import (
    AttributeSchema,
    DataError,
    Dataset,
    Schema,
    categorical_order_key,
    individual_ranking,
    marginality,
    marginality_centroid,
    multivariate_baseline,
)

from conftest import make_numeric_dataset


columns = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestIndividualRankingNumeric:
    def test_sorted_column_hand_case(self):
        plan = individual_ranking([1.0, 2.0, 3.0, 4.0], 2)
        assert list(plan.centroids) == [1.5, 3.5]
        assert list(plan.assignments) == [0, 0, 1, 1]
        assert list(plan.sizes) == [2, 2]

    def test_unsorted_column_with_remainder(self):
        # sorted order is 1,2,3,4,5 so clusters are {1,2} and {3,4,5}
        plan = individual_ranking([5.0, 1.0, 3.0, 2.0, 4.0], 2)
        assert list(plan.centroids) == [1.5, 4.0]
        assert list(plan.assignments) == [1, 0, 1, 0, 1]
        assert list(plan.sizes) == [2, 3]

    def test_k_equal_one_is_identity(self):
        plan = individual_ranking([3.0, 1.0, 2.0], 1)
        values = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(np.asarray(plan.centroids)[plan.assignments], values)

    def test_k_equal_n_single_cluster(self):
        plan = individual_ranking([4.0, 0.0, 2.0], 3)
        assert plan.n_clusters == 1
        assert plan.centroids[0] == 2.0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            individual_ranking([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            individual_ranking([1.0, 2.0], 0)

    def test_stable_tie_break_by_original_index(self):
        # all values equal: sorted order must be original order
        plan = individual_ranking([7.0, 7.0, 7.0, 7.0], 2)
        assert list(plan.sorted_indices) == [0, 1, 2, 3]
        assert list(plan.assignments) == [0, 0, 1, 1]

    @given(values=columns, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_cluster_size_invariants(self, values, k):
        k = min(k, len(values))
        plan = individual_ranking(values, k)
        sizes = list(plan.sizes)
        assert sum(sizes) == len(values)
        assert all(s == k for s in sizes[:-1])
        assert k <= sizes[-1] <= 2 * k - 1

    @given(values=columns, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_clusters_are_rank_contiguous(self, values, k):
        k = min(k, len(values))
        plan = individual_ranking(values, k)
        ids_in_rank_order = plan.assignments[plan.sorted_indices]
        assert all(a <= b for a, b in zip(ids_in_rank_order, ids_in_rank_order[1:]))

    @given(values=columns, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_centroids_preserve_cluster_means(self, values, k):
        k = min(k, len(values))
        arr = np.asarray(values)
        plan = individual_ranking(arr, k)
        for cid in range(plan.n_clusters):
            members = arr[plan.assignments == cid]
            assert plan.centroids[cid] == pytest.approx(members.mean(), abs=1e-9, rel=1e-9)

    @given(values=columns, k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100)
    def test_replacing_values_by_centroids_is_idempotent(self, values, k):
        k = min(k, len(values))
        plan = individual_ranking(values, k)
        replaced = np.asarray(plan.centroids)[plan.assignments]
        again = individual_ranking(replaced, k)
        assert np.allclose(np.asarray(again.centroids), np.asarray(plan.centroids))


class TestCategoricalOrderKey:
    def test_singleton(self, chain_tax):
        assert categorical_order_key(chain_tax, ["a"]) == {"a": 0}

    def test_reference_is_most_marginal(self, chain_tax):
        # scores over {a, b, root}: a and b tie as most marginal, the tie
        # breaks to "a"; ranks then follow distance to "a"
        values = ["a", "b", "root"]
        scores = {v: marginality(chain_tax, values, v) for v in set(values)}
        assert scores["a"] == scores["b"] and scores["a"] > scores["root"]
        key = categorical_order_key(chain_tax, values)
        assert key == {"a": 0, "root": 1, "b": 2}

    def test_multiset_weighting_moves_reference(self, chain_tax):
        # with many copies of "a", "b" becomes the most marginal label
        key = categorical_order_key(chain_tax, ["a", "a", "a", "b"])
        assert key["b"] == 0

    def test_ranks_are_dense_and_start_at_zero(self, wide_tax):
        key = categorical_order_key(wide_tax, ["dev", "nurse", "sre", "doctor"])
        assert sorted(key.values()) == [0, 1, 2, 3]


class TestIndividualRankingCategorical:
    def test_clusters_follow_order_key(self, chain_tax):
        labels = ["b", "a", "b", "a"]
        plan = individual_ranking(labels, 2, taxonomy=chain_tax)
        key = categorical_order_key(chain_tax, labels)
        ranks = [key[labels[i]] for i in plan.sorted_indices]
        assert ranks == sorted(ranks)
        assert len(plan.centroids) == 2

    def test_centroids_are_marginality_centroids(self, wide_tax):
        labels = ["dev", "dev", "nurse", "doctor"]
        plan = individual_ranking(labels, 2, taxonomy=wide_tax)
        for cid in range(plan.n_clusters):
            members = [labels[i] for i in plan.members(cid)]
            assert plan.centroids[cid] == marginality_centroid(wide_tax, members)

    @pytest.mark.parametrize("n, k", [(12, 3), (13, 3), (12, 1), (12, 12), (12, 7)])
    def test_distinct_clusters_group_clusters_by_multiset(self, n, k):
        ids = np.random.default_rng(n + k).integers(0, 3, n)
        column = [f"v{i}" for i in ids]
        plan = microagg._rank_clusters(np.arange(n), k)
        multisets = [sorted(ids[plan.members(j)].tolist()) for j in range(plan.n_clusters)]
        groups = list(plan.distinct_clusters(ids))
        assert sorted(np.concatenate([g for g, _ in groups]).tolist()) == list(range(plan.n_clusters))
        for group, members in groups:
            values = [column[i] for i in members]
            assert group.tolist() == sorted(group.tolist())
            assert all(multisets[j] == multisets[group[0]] for j in group)
            assert values == [column[i] for i in plan.members(group[0])]
        assert len({tuple(multisets[g[0]]) for g, _ in groups}) == len(groups)

    def test_unanimous_cluster_keeps_its_label(self, wide_tax):
        plan = individual_ranking(["dev"] * 4, 2, taxonomy=wide_tax)
        assert plan.centroids == ("dev", "dev")

    def test_k_checked_before_order_key(self, chain_tax, monkeypatch):
        # an empty column fails on k as a numeric one does, not in the taxonomy
        with pytest.raises(ValueError, match=r"k must be in \[1, n\]; got k=1, n=0"):
            individual_ranking([], 1)
        with pytest.raises(ValueError, match=r"k must be in \[1, n\]; got k=1, n=0"):
            individual_ranking([], 1, taxonomy=chain_tax)
        # an out-of-range k fails before the order key is built
        calls = []
        monkeypatch.setattr(microagg, "categorical_order_key", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"k must be in \[1, n\]; got k=3, n=2"):
            individual_ranking(["a", "b"], 3, taxonomy=chain_tax)
        assert calls == []


def two_column_dataset(rows, bounds=((0.0, 1.0), (0.0, 1.0))):
    schema = Schema((
        AttributeSchema("p", "numeric", *bounds[0]),
        AttributeSchema("q", "numeric", *bounds[1]),
    ))
    arr = np.asarray(rows, dtype=float)
    return Dataset(schema, [arr[:, 0], arr[:, 1]])


class TestMultivariateBaseline:
    def test_corner_distance_orders_records(self):
        data = two_column_dataset([(0, 0), (1, 1), (0, 1), (1, 0)])
        plan = multivariate_baseline(data, 2)
        # keys 0, 2, 1, 1: ties between records 2 and 3 break by index
        assert list(plan.assignments) == [0, 1, 0, 1]
        assert np.allclose(plan.centroids[0], [0.0, 0.5])
        assert np.allclose(plan.centroids[1], [1.0, 0.5])

    def test_identical_records_single_point(self):
        data = two_column_dataset([(0.5, 0.5)] * 4)
        plan = multivariate_baseline(data, 2)
        assert np.allclose(plan.centroids, 0.5)

    def test_single_attribute_matches_individual_ranking(self):
        values = [0.9, 0.1, 0.5, 0.3, 0.7]
        data = make_numeric_dataset(values, 0.0, 1.0)
        mv = multivariate_baseline(data, 2)
        ir = individual_ranking(values, 2)
        assert np.array_equal(mv.assignments, ir.assignments)
        assert np.allclose(mv.centroids[:, 0], np.asarray(ir.centroids))

    def test_categorical_rejected(self, chain_tax):
        schema = Schema(
            (AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": chain_tax}
        )
        data = Dataset(schema, [("a", "b")])
        with pytest.raises(DataError, match="numeric"):
            multivariate_baseline(data, 1)

    def test_normalization_uses_domain_not_data(self):
        # same records, wider second domain: the key weights q less, so
        # ordering flips to follow p
        rows = [(0.2, 0.9), (0.8, 0.1)]
        narrow = multivariate_baseline(two_column_dataset(rows), 1)
        wide = multivariate_baseline(
            two_column_dataset(rows, bounds=((0.0, 1.0), (0.0, 100.0))), 1
        )
        assert not np.array_equal(narrow.assignments, wide.assignments)
