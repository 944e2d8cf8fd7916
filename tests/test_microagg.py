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
    TaxonomyError,
    categorical_order_key,
    individual_ranking,
    marginality,
    marginality_centroid,
    multivariate_baseline,
)

from conftest import make_numeric_dataset, random_taxonomy


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

    @pytest.mark.parametrize("values, bad", [
        ([np.nan, 1.0, np.nan, 0.0], "record 0: sort key nan"),
        ([1.0, 2.0, np.inf, 0.0], "record 2: sort key inf"),
        ([3.0, 1.0, 2.0, -np.inf, np.nan], "record 3: sort key -inf"),
    ])
    def test_non_finite_values_raise(self, values, bad):
        with pytest.raises(ValueError, match=f"^{bad} is not finite$"):
            individual_ranking(values, 2)

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

    def test_label_per_record_shares_the_centroid_strings(self, wide_tax):
        labels = ["dev", "sre", "nurse", "doctor", "ops", "dev", "tech"]
        plan = individual_ranking(labels, 2, taxonomy=wide_tax)
        column = plan.per_record()
        assert type(column) is tuple and len(column) == len(labels)
        assert all(type(label) is str for label in column)
        assert all(label is plan.centroids[c] for label, c in zip(column, plan.assignments.tolist()))

    def test_unanimous_cluster_keeps_its_label(self, wide_tax):
        plan = individual_ranking(["dev"] * 4, 2, taxonomy=wide_tax)
        assert plan.centroids == ("dev", "dev")

    @pytest.mark.parametrize("n, k", [(1, 1), (12, 3), (13, 3), (29, 7), (40, 40), (45, 2)])
    def test_labels_and_node_ids_give_the_same_plan(self, n, k):
        rng = np.random.default_rng(n * k)
        tax = random_taxonomy(rng, size=int(rng.integers(2, 60)))
        labels = sorted(tax.nodes)
        columns = [[labels[int(i)] for i in rng.zipf(1.5, size=n) % len(labels)], [labels[-1]] * n]
        for column in columns:
            forms = [column, tuple(column), np.array(column), tax.node_ids(column)]
            plans = [individual_ranking(form, k, taxonomy=tax) for form in forms]
            for plan in plans:
                assert np.array_equal(plan.ids, forms[-1]) and not plan.ids.flags.writeable
                for field in ("assignments", "sorted_indices", "sizes"):
                    assert np.array_equal(getattr(plan, field), getattr(plans[0], field))
                assert plan.centroids == plans[0].centroids
            # The plan keeps a copy, so the caller's id array stays the caller's.
            assert not np.shares_memory(plans[-1].ids, forms[-1])
        assert individual_ranking(np.arange(5), 2).ids is None

    def test_node_ids_outside_the_taxonomy_raise(self, chain_tax):
        for ids in (np.array([0, -1, 2]), np.array([0, 5, 2]), np.array([2**63, 0, 1], dtype=np.uint64)):
            with pytest.raises(TaxonomyError, match=r"^node ids must lie in \[0, 5\)$"):
                individual_ranking(ids, 2, taxonomy=chain_tax)

    def test_k_checked_before_the_order_of_node_ids(self, chain_tax, monkeypatch):
        calls = []
        monkeypatch.setattr(microagg, "_label_order", lambda *args: calls.append(args))
        for column in (["a", "b"], np.array([1, 3])):
            with pytest.raises(ValueError, match=r"k must be in \[1, n\]; got k=3, n=2"):
                individual_ranking(column, 3, taxonomy=chain_tax)
        assert calls == []

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

    def test_non_finite_keys_raise(self):
        # The first bad record is named, not the one that sorts last.
        data = two_column_dataset([(0.5, 0.5), (0.1, np.nan), (np.inf, 0.0), (0.0, -np.inf)])
        with pytest.raises(ValueError, match=r"^record 1: sort key nan is not finite$"):
            multivariate_baseline(data, 1)
        with pytest.raises(ValueError, match=r"^record 0: sort key -inf is not finite$"):
            multivariate_baseline(two_column_dataset([(-np.inf, 0.0), (0.5, 0.5)]), 1)

    def test_normalization_uses_domain_not_data(self):
        # same records, wider second domain: the key weights q less, so
        # ordering flips to follow p
        rows = [(0.2, 0.9), (0.8, 0.1)]
        narrow = multivariate_baseline(two_column_dataset(rows), 1)
        wide = multivariate_baseline(
            two_column_dataset(rows, bounds=((0.0, 1.0), (0.0, 100.0))), 1
        )
        assert not np.array_equal(narrow.assignments, wide.assignments)


def tie_heavy_keys(family: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    ties = rng.integers(0, max(1, n // 20), n)
    return {
        "floats": ties * 0.25 - 3.0,
        "signed-zeros": rng.choice([-0.0, 0.0, -1.5, 1.5], n),
        "all-equal": np.full(n, 2.5),
        "sorted": np.sort(ties * 0.5),
        "reversed": np.sort(ties * 0.5)[::-1],
        "int64": ties - 7,
        "distinct": rng.permutation(n) / 3.0,
    }[family]


class TestStableOrder:
    """`_stable_order` against numpy's stable argsort.

    Sizes run past numpy's insertion-sort cutoff (16), below which the
    default argsort happens to keep equal keys in order.
    """

    @given(
        family=st.sampled_from(["floats", "signed-zeros", "all-equal", "sorted", "reversed", "int64", "distinct"]),
        n=st.one_of(st.integers(1, 40), st.integers(41, 3000)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_stable_argsort(self, family, n, seed):
        keys = tie_heavy_keys(family, n, seed)
        order, sorted_keys = microagg._stable_order(keys)
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        # Bit for bit, so -0.0 and 0.0 sit where the stable order puts them.
        assert sorted_keys.tobytes() == keys[order].tobytes()

    @pytest.mark.parametrize("family", ["floats", "signed-zeros", "int64"])
    @pytest.mark.parametrize("n, k", [(200, 7), (1000, 10), (999, 3)])
    def test_ranked_plans_break_ties_by_record_index(self, family, n, k):
        keys = tie_heavy_keys(family, n, n + k).astype(float)
        stable = np.argsort(keys, kind="stable")
        starts = np.arange(n // k) * k
        # Runs of equal keys cross cluster boundaries.
        assert any(keys[stable[s - 1]] == keys[stable[s]] for s in starts[1:])
        plan = individual_ranking(keys, k)
        assert np.array_equal(plan.sorted_indices, stable)
        expected = np.add.reduceat(keys[stable], starts) / plan.sizes
        assert np.asarray(plan.centroids).tobytes() == expected.tobytes()

        data = two_column_dataset(np.column_stack([keys, -keys]), bounds=((-10.0, 10.0), (-20.0, 20.0)))
        projection = (keys + 10.0) / 20.0 + (-keys + 20.0) / 40.0
        mv_stable = np.argsort(projection, kind="stable")
        assert np.array_equal(multivariate_baseline(data, k).sorted_indices, mv_stable)

    @pytest.mark.parametrize("n, k", [(300, 7), (1000, 10), (250, 3)])
    def test_categorical_plans_break_ties_by_record_index(self, n, k):
        rng = np.random.default_rng(n * k)
        tax = random_taxonomy(rng, size=30)
        labels = sorted(tax.nodes)
        column = [labels[int(i)] for i in rng.zipf(1.3, size=n) % len(labels)]
        key = categorical_order_key(tax, column)
        stable = np.argsort([key[label] for label in column], kind="stable")
        plan = individual_ranking(column, k, taxonomy=tax)
        assert np.array_equal(plan.sorted_indices, stable)
        assert np.array_equal(plan.assignments[stable], np.repeat(np.arange(plan.n_clusters), plan.sizes))

    @pytest.mark.parametrize("n, k", [(300, 7), (5000, 10)])
    def test_label_plans_sort_distinct_keys(self, monkeypatch, n, k):
        # Zipf labels tie in long runs; keys rank * n + index leave the tie step nothing to do.
        rng = np.random.default_rng(n + k)
        tax = random_taxonomy(rng, size=30)
        labels = sorted(tax.nodes)
        column = [labels[int(i)] for i in rng.zipf(1.3, size=n) % len(labels)]
        key = categorical_order_key(tax, column)
        ranks = np.array([key[label] for label in column])
        assert len(np.unique(ranks)) * 5 <= n  # long runs of tied ranks
        keys_seen = []
        stable_order = microagg._stable_order
        monkeypatch.setattr(microagg, "_stable_order", lambda keys: keys_seen.append(keys.copy()) or stable_order(keys))
        plan = individual_ranking(column, k, taxonomy=tax)
        (keys,) = keys_seen
        assert len(np.unique(keys)) == n
        assert np.array_equal(plan.sorted_indices, np.argsort(ranks, kind="stable"))
