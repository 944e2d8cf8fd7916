from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdp import (
    SensitivityProbe,
    Taxonomy,
    dp_property_check,
    exact_dp_ratio,
    exact_expmech_distribution,
    exponential_mechanism_centroid,
    individual_ranking,
    lemma1_check,
    marginality,
    marginality_centroid,
    neighbor_pair,
    spanned_subtree,
)
from microdp.taxonomy import marginality_scores

from conftest import make_numeric_dataset, random_taxonomy


class TestLemma1Check:
    def test_two_record_cluster_hits_bound_exactly(self):
        report = lemma1_check(SensitivityProbe((0.0, 10.0), k=2, delta_cap=4.0))
        assert report.max_shift == 2.0
        assert report.bound == 2.0
        assert report.passed
        assert report.worst_index == 0
        assert report.worst_replacement == -4.0

    def test_equal_values_single_cluster(self):
        report = lemma1_check(SensitivityProbe((0.0, 0.0), k=2, delta_cap=5.0))
        assert report.max_shift == 2.5
        assert report.passed

    def test_multi_cluster_with_domain_clipping(self):
        probe = SensitivityProbe(
            (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), k=2, delta_cap=2.0, lower=1.0, upper=6.0
        )
        report = lemma1_check(probe)
        assert report.passed
        assert 1.0 <= report.worst_replacement <= 6.0

    def test_reported_worst_case_is_reproducible(self):
        probe = SensitivityProbe((3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0), k=3, delta_cap=2.5)
        report = lemma1_check(probe)
        values = np.asarray(probe.column)
        base = np.asarray(individual_ranking(values, probe.k).centroids)
        mutated = values.copy()
        mutated[report.worst_index] = report.worst_replacement
        shift = np.abs(np.asarray(individual_ranking(mutated, probe.k).centroids) - base).sum()
        assert shift == pytest.approx(report.max_shift, abs=1e-12)

    @given(
        values=st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=2,
            max_size=20,
        ),
        k=st.integers(min_value=1, max_value=6),
        delta_cap=st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_on_random_probes(self, values, k, delta_cap):
        k = min(k, len(values))
        report = lemma1_check(SensitivityProbe(tuple(values), k=k, delta_cap=delta_cap))
        assert report.passed, (report.max_shift, report.bound)

    def test_probe_validation(self):
        with pytest.raises(ValueError, match="delta_cap"):
            SensitivityProbe((1.0,), k=1, delta_cap=0.0)
        with pytest.raises(ValueError, match="grid_points"):
            SensitivityProbe((1.0,), k=1, delta_cap=1.0, grid_points=1)

    # A mechanism that releases the changed record verbatim fails the check
    # at epsilon = 1; an infinite or NaN epsilon must not let it pass, nor
    # may an infinite delta_cap turn the shift bound into a pass.
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("run", [
        pytest.param(
            lambda value: SensitivityProbe((1.0, 2.0, 3.0, 4.0), k=2, delta_cap=value),
            id="delta_cap"),
        pytest.param(
            lambda value: dp_property_check(
                lambda data, rng: float(data.column("v")[0]),
                neighbor_pair(make_numeric_dataset([0.0, 0.0], 0.0, 1.0), 0, [1.0]),
                epsilon=value, trials=1000),
            id="epsilon"),
    ])
    def test_non_finite_parameters_rejected(self, run, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            run(value)


class TestExactExpmechDistribution:
    def test_probabilities_sum_to_one(self, wide_tax):
        dist = exact_expmech_distribution(wide_tax, ["dev", "nurse"], 1.0)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p > 0 for p in dist.values())

    def test_support_is_spanned_subtree_by_default(self, wide_tax):
        values = ["dev", "ops"]
        dist = exact_expmech_distribution(wide_tax, values, 2.0)
        assert set(dist) == spanned_subtree(wide_tax, values)

    def test_zero_epsilon_is_uniform(self, chain_tax):
        dist = exact_expmech_distribution(chain_tax, ["a", "b"], 0.0)
        assert all(p == pytest.approx(1.0 / len(dist), abs=1e-12) for p in dist.values())

    def test_two_candidate_softmax_closed_form(self, chain_tax):
        # marginality gap between "a" and "x" for the cluster ["a", "a"]
        # is 2 * log2(4/3); this epsilon makes the logit gap exactly 1
        epsilon = 1.0 / math.log2(4.0 / 3.0)
        dist = exact_expmech_distribution(chain_tax, ["a", "a"], epsilon, candidates=["a", "x"])
        assert dist["a"] == pytest.approx(math.e / (math.e + 1.0), abs=1e-12)
        assert dist["x"] == pytest.approx(1.0 / (math.e + 1.0), abs=1e-12)

    def test_huge_epsilon_concentrates_on_centroid(self, wide_tax):
        values = ["dev", "dev", "ops"]
        dist = exact_expmech_distribution(wide_tax, values, 1e6)
        assert dist[marginality_centroid(wide_tax, values)] > 0.999

    def test_sampler_frequencies_match_exact_distribution(self, wide_tax):
        values = ["dev", "ops", "nurse"]
        epsilon = 1.5
        exact = exact_expmech_distribution(wide_tax, values, epsilon)
        rng = np.random.default_rng(17)
        trials = 20_000
        counts = {label: 0 for label in exact}
        for _ in range(trials):
            counts[exponential_mechanism_centroid(wide_tax, values, epsilon, 1.0, rng)] += 1
        for label, p in exact.items():
            sigma = math.sqrt(p * (1.0 - p) / trials)
            assert counts[label] / trials == pytest.approx(p, abs=4 * sigma + 1e-9)

    def test_sampler_inverts_exact_distribution(self):
        """The sampler and the oracle's cumulative distribution, inverted on
        the same uniforms, pick the same labels."""
        rng = np.random.default_rng(31)
        for size in (7, 40, 200):
            tax = random_taxonomy(rng, size)
            labels = sorted(tax.nodes)
            values = [labels[int(i)] for i in rng.zipf(1.3, size=12) % size]
            for candidates in (None, tax.nodes):
                exact = exact_expmech_distribution(tax, values, 2.0, candidates=candidates)
                support = list(exact)
                cdf = np.cumsum(list(exact.values()))
                sampler_rng = np.random.default_rng(size)
                twin_rng = np.random.default_rng(size)
                for _ in range(2_000):
                    drawn = exponential_mechanism_centroid(
                        tax, values, 2.0, 1.0, sampler_rng, candidates=candidates
                    )
                    idx = int(np.searchsorted(cdf, twin_rng.random(), side="right"))
                    assert drawn == support[min(idx, len(support) - 1)]

    def test_probabilities_match_softmax_of_marginality(self):
        """At epsilon = 2 the logits are the negated marginalities, scored
        by the scalar formula and by the sampler's array kernel."""
        rng = np.random.default_rng(32)
        for size in (7, 40, 200):
            tax = random_taxonomy(rng, size)
            labels = sorted(tax.nodes)
            values = [labels[int(i)] for i in rng.zipf(1.3, size=12) % size]
            for candidates in (None, tax.nodes):
                exact = exact_expmech_distribution(tax, values, 2.0, candidates=candidates)
                support = list(exact)
                kernel = marginality_scores(tax, values, support).tolist()
                scalar = [marginality(tax, values, c) for c in support]
                for scores in (kernel, scalar):
                    weights = [math.exp(min(scores) - q) for q in scores]
                    norm = math.fsum(weights)
                    for label, w in zip(support, weights):
                        assert exact[label] == pytest.approx(w / norm, abs=1e-12)

    def test_validation(self, chain_tax):
        with pytest.raises(ValueError, match="empty"):
            exact_expmech_distribution(chain_tax, [], 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            exact_expmech_distribution(chain_tax, ["a"], -1.0)
        with pytest.raises(ValueError, match="sensitivity_q"):
            exact_expmech_distribution(chain_tax, ["a"], 1.0, sensitivity_q=0.0)

    @pytest.mark.parametrize("q", [float("nan"), float("inf")])
    def test_non_finite_sensitivity_q_is_rejected(self, chain_tax, q):
        with pytest.raises(ValueError, match=rf"^sensitivity_q must be positive and finite, got {q}$"):
            exact_expmech_distribution(chain_tax, ["a", "a", "b"], 1.0, sensitivity_q=q)


class TestExactDpRatio:
    def test_shared_draw_respects_budget_on_toy_instance(self, chain_tax):
        nodes = sorted(chain_tax.nodes)
        ratio = exact_dp_ratio(
            chain_tax, ["a", "a", "b", "b"], ["a", "a", "a", "b"], 1.0, candidates=nodes
        )
        assert ratio == pytest.approx(0.4760767, abs=1e-6)
        assert ratio <= 1.0 + 1e-9

    def test_per_record_draws_blow_the_budget(self, chain_tax):
        nodes = sorted(chain_tax.nodes)
        ratio = exact_dp_ratio(
            chain_tax,
            ["a", "a", "b", "b"],
            ["a", "a", "a", "b"],
            1.0,
            shared=False,
            candidates=nodes,
        )
        assert ratio == pytest.approx(1.9043070, abs=1e-6)
        assert ratio > 1.0

    def test_support_mismatch_is_infinite(self, chain_tax):
        # default candidates differ between the two clusters, so some
        # outcome is possible on one side only
        assert exact_dp_ratio(chain_tax, ["a", "a"], ["a", "b"], 1.0) == math.inf

    def test_unequal_cluster_sizes_rejected(self, chain_tax):
        with pytest.raises(ValueError, match="same size"):
            exact_dp_ratio(chain_tax, ["a"], ["a", "b"], 1.0)

    def test_shared_ratio_bounded_by_epsilon_on_random_instances(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            taxonomy = random_taxonomy(rng, size=int(rng.integers(3, 12)))
            nodes = sorted(taxonomy.nodes)
            size = int(rng.integers(1, 6))
            cluster_a = [nodes[i] for i in rng.integers(0, len(nodes), size)]
            cluster_b = list(cluster_a)
            cluster_b[int(rng.integers(0, size))] = nodes[int(rng.integers(0, len(nodes)))]
            epsilon = float(rng.uniform(0.1, 5.0))
            ratio = exact_dp_ratio(
                taxonomy, cluster_a, cluster_b, epsilon, candidates=nodes
            )
            assert ratio <= epsilon + 1e-9, (trial, ratio, epsilon)

    def test_ratio_scales_linearly_with_epsilon(self, chain_tax):
        nodes = sorted(chain_tax.nodes)
        args = (chain_tax, ["a", "b"], ["a", "a"])
        low = exact_dp_ratio(*args, 0.5, candidates=nodes)
        assert low <= 0.5 + 1e-9
        high = exact_dp_ratio(*args, 4.0, candidates=nodes)
        assert high <= 4.0 + 1e-9
