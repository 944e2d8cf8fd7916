from __future__ import annotations

import math

import numpy as np
import pytest

from microdp import (
    METHODS,
    AttributeSchema,
    ClusterPlan,
    DataError,
    Dataset,
    MechanismConfig,
    PrivacyBudget,
    Schema,
    Taxonomy,
    TaxonomyError,
    attribute_substream,
    categorical_order_key,
    dp_property_check,
    exact_expmech_distribution,
    execute_release,
    exponential_mechanism_centroid,
    individual_ranking,
    ir_dp_release,
    laplace_from_uniform,
    marginality_centroid,
    marginality_table,
    multivariate_baseline,
    mv_dp_release,
    neighbor_pair,
    noise_scale,
    plain_laplace_release,
    spanned_subtree,
)

from microdp import mechanisms
from microdp import taxonomy as taxonomy_module
from microdp.mechanisms import perturb, records, release_plans

from conftest import make_numeric_dataset, released_table


class TestLaplaceTransform:
    def test_median_uniform_maps_to_exact_zero(self):
        assert laplace_from_uniform(0.5, 3.0) == 0.0

    def test_known_quantiles(self):
        # u = 0.75 sits one ln(2) scale unit above the median
        assert laplace_from_uniform(0.75, 1.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert laplace_from_uniform(0.25, 1.0) == pytest.approx(-math.log(2.0), rel=1e-12)

    def test_zero_uniform_is_guarded(self):
        value = laplace_from_uniform(0.0, 1.0)
        assert math.isfinite(value) and value < 0

    def test_monotone_in_u(self):
        grid = np.linspace(0.001, 0.999, 101)
        out = laplace_from_uniform(grid, 2.0)
        assert np.all(np.diff(out) > 0)

    def test_vector_and_scalar_paths_agree(self):
        grid = np.array([0.1, 0.5, 0.9])
        vec = laplace_from_uniform(grid, 1.5)
        assert list(vec) == [laplace_from_uniform(float(u), 1.5) for u in grid]

    def test_moments_match_target_distribution(self):
        rng = np.random.default_rng(7)
        draws = laplace_from_uniform(rng.random(100_000), 4.0)
        assert np.mean(draws) == pytest.approx(0.0, abs=0.1)
        assert np.std(draws) == pytest.approx(math.sqrt(2.0) * 4.0, rel=0.02)

    def test_bad_scale(self):
        for scale in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                laplace_from_uniform(0.5, scale)

    @staticmethod
    def former_expression(u, scale):
        """The transform as one expression, which the in-place one must equal to the bit."""
        u = np.asarray(u, dtype=float)
        u = np.where(u == 0.0, 2.0 ** -53, u)
        shifted = u - 0.5
        out = -scale * np.sign(shifted) * np.log1p(-2.0 * np.abs(shifted))
        return out if out.ndim else float(out)

    @pytest.mark.parametrize("scale", [1e-300, 0.3, 1.5, 7.0, 1e300])
    def test_equals_the_former_expression(self, scale):
        special = [0.0, 2.0 ** -53, 0.25, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53]
        for u in special:
            value = laplace_from_uniform(u, scale)
            assert type(value) is float
            assert np.float64(value).tobytes() == np.float64(self.former_expression(u, scale)).tobytes()
        u = np.concatenate([special, np.random.default_rng(5).random(10_000)])
        before = u.copy()
        out = laplace_from_uniform(u, scale)
        assert out.tobytes() == self.former_expression(u, scale).tobytes()
        assert u.tobytes() == before.tobytes()  # the caller's draws stay as they were


class TestSubstreams:
    def test_same_coordinates_reproduce(self):
        a = attribute_substream(42, 3).random(5)
        b = attribute_substream(42, 3).random(5)
        assert np.array_equal(a, b)

    def test_attributes_get_distinct_streams(self):
        a = attribute_substream(42, 0).random(5)
        b = attribute_substream(42, 1).random(5)
        assert not np.array_equal(a, b)

    def test_vector_draw_equals_scalar_sequence(self):
        # the k=1 equivalence below relies on this generator property
        vec = attribute_substream(9, 0).random(6)
        scalar_rng = attribute_substream(9, 0)
        assert list(vec) == [scalar_rng.random() for _ in range(6)]


class TestBudgetAndConfig:
    def test_epsilon_split(self):
        assert PrivacyBudget(2.0, 4).epsilon_per_attribute == 0.5

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            PrivacyBudget(0.0, 1)
        with pytest.raises(ValueError):
            PrivacyBudget(math.inf, 1)
        with pytest.raises(ValueError):
            PrivacyBudget(1.0, 0)

    def test_config_validation(self):
        budget = PrivacyBudget(1.0, 1)
        with pytest.raises(ValueError, match="unknown method"):
            MechanismConfig("typo", 2, budget, 0)
        with pytest.raises(ValueError, match="k must"):
            MechanismConfig("ir-dp", 0, budget, 0)
        with pytest.raises(ValueError, match="seed"):
            MechanismConfig("ir-dp", 2, budget, -1)

    def test_effective_k(self):
        budget = PrivacyBudget(1.0, 1)
        assert MechanismConfig("plain-laplace", 50, budget, 0).effective_k == 1
        assert MechanismConfig("ir-dp", 50, budget, 0).effective_k == 50


def _error(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestNamedReleaseErrors:
    """The noisy named releases build a `MechanismConfig`, so they fail as
    `execute_release` does with the same configuration."""

    data = make_numeric_dataset([1.0, 2.0, 3.0, 4.0])
    budget = PrivacyBudget(1.0, 1)

    @pytest.mark.parametrize("method, k, seed, message", [
        ("ir-dp", 0, 1, "k must be at least 1, got 0"),
        ("mv-dp", 0, 1, "k must be at least 1, got 0"),
        ("ir-dp", 2, -1, "seed must be non-negative"),
        ("plain-laplace", 1, -1, "seed must be non-negative"),
        ("mv-dp", 2, -1, "seed must be non-negative"),
        ("ir-dp", 5, 1, "k must be in [1, n]; got k=5, n=4"),
        ("mv-dp", 5, 1, "k must be in [1, n]; got k=5, n=4"),
    ])
    def test_named_release_fails_as_execute_release(self, method, k, seed, message):
        named = {
            "ir-dp": lambda: ir_dp_release(self.data, k, self.budget, seed),
            "plain-laplace": lambda: plain_laplace_release(self.data, self.budget, seed),
            "mv-dp": lambda: mv_dp_release(self.data, k, self.budget, seed),
        }[method]
        assert _error(named) == message
        assert _error(
            lambda: execute_release(MechanismConfig(method, k, self.budget, seed), self.data)
        ) == message

    def test_noiseless_releases_check_k_against_n(self):
        for method in ("ir-only", "mv-only"):
            for k in (0, 5):
                assert _error(
                    lambda: released_table(self.data, release_plans(self.data, method, k))
                ) == f"k must be in [1, n]; got k={k}, n=4"


class TestNoiseScale:
    def test_formulas(self):
        budget = PrivacyBudget(2.0, 4)  # epsilon per attribute 0.5
        assert noise_scale("ir-dp", delta=10.0, budget=budget, k=5) == 10.0 / (5 * 0.5)
        assert noise_scale("plain-laplace", delta=10.0, budget=budget) == 10.0 / 0.5
        assert noise_scale("mv-dp", delta=10.0, budget=budget, k=5, n=100) == pytest.approx(
            (100 / 5) * 10.0 / (5 * 2.0)
        )
        assert noise_scale("ir-only", delta=10.0, budget=budget) == 0.0
        assert noise_scale("mv-only", delta=10.0, budget=budget) == 0.0

    def test_scales_cross_at_k_equal_n_over_m(self):
        n, m = 120, 6
        budget = PrivacyBudget(1.0, m)
        at = lambda method, k: noise_scale(method, delta=1.0, budget=budget, k=k, n=n)
        crossover = n // m
        assert at("ir-dp", crossover) == pytest.approx(at("mv-dp", crossover), rel=1e-12)
        assert at("mv-dp", crossover - 5) > at("ir-dp", crossover - 5)
        assert at("mv-dp", crossover + 5) < at("ir-dp", crossover + 5)

    def test_mv_requires_n(self):
        with pytest.raises(ValueError, match="record count"):
            noise_scale("mv-dp", delta=1.0, budget=PrivacyBudget(1.0, 1), k=2)

    def test_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            noise_scale("ir-dp", delta=0.0, budget=PrivacyBudget(1.0, 1), k=2)


class TestExponentialMechanismCentroid:
    def test_output_stays_in_spanned_subtree(self, wide_tax):
        rng = np.random.default_rng(3)
        values = ["dev", "ops", "dev"]
        allowed = spanned_subtree(wide_tax, values)
        seen = {
            exponential_mechanism_centroid(wide_tax, values, 0.5, 1.0, rng)
            for _ in range(200)
        }
        assert seen <= allowed

    def test_huge_epsilon_recovers_marginality_centroid(self, wide_tax):
        rng = np.random.default_rng(5)
        values = ["dev", "dev", "ops"]
        target = marginality_centroid(wide_tax, values)
        draws = {
            exponential_mechanism_centroid(wide_tax, values, 1e6, 1.0, rng)
            for _ in range(50)
        }
        assert draws == {target}

    def test_tiny_epsilon_spreads_over_candidates(self, chain_tax):
        rng = np.random.default_rng(9)
        values = ["a", "b"]
        counts = {}
        for _ in range(3000):
            label = exponential_mechanism_centroid(chain_tax, values, 1e-9, 1.0, rng)
            counts[label] = counts.get(label, 0) + 1
        # near-zero epsilon is near-uniform over the 5 spanned nodes
        for label in spanned_subtree(chain_tax, values):
            assert counts.get(label, 0) == pytest.approx(600, abs=150)

    def test_candidate_override_restricts_support(self, chain_tax):
        rng = np.random.default_rng(1)
        label = exponential_mechanism_centroid(
            chain_tax, ["a"], 1.0, 1.0, rng, candidates=["root"]
        )
        assert label == "root"

    def test_repeated_candidates_count_once(self, chain_tax):
        values = ["a", "a", "b"]
        listed, unique = ["a", "a", "b", "root", "b"], {"a", "b", "root"}
        exact = exact_expmech_distribution(chain_tax, values, 1.0, candidates=listed)
        assert exact == exact_expmech_distribution(chain_tax, values, 1.0, candidates=unique)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        draws = {}
        for cands in (listed, unique):
            rng = np.random.default_rng(17)
            draws[len(cands)] = [
                exponential_mechanism_centroid(chain_tax, values, 1.0, 1.0, rng, candidates=cands)
                for _ in range(300)
            ]
        assert draws[len(listed)] == draws[len(unique)]

    def test_validation(self, chain_tax):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="empty"):
            exponential_mechanism_centroid(chain_tax, [], 1.0, 1.0, rng)
        with pytest.raises(ValueError, match="epsilon"):
            exponential_mechanism_centroid(chain_tax, ["a"], 0.0, 1.0, rng)
        with pytest.raises(ValueError, match="sensitivity_q"):
            exponential_mechanism_centroid(chain_tax, ["a"], 1.0, 0.0, rng)

    @pytest.mark.parametrize("q", [float("nan"), float("inf")])
    def test_non_finite_sensitivity_q_is_rejected(self, chain_tax, q):
        # NaN logits would pick the first candidate on every draw, with no noise.
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=rf"^sensitivity_q must be positive and finite, got {q}$"):
            exponential_mechanism_centroid(chain_tax, ["a", "a", "b"], 1.0, q, rng)

    @pytest.mark.parametrize("draw", [
        pytest.param(
            lambda tax, values, cands: exponential_mechanism_centroid(
                tax, values, 1.0, 1.0, np.random.default_rng(0), candidates=cands),
            id="sampled"),
        pytest.param(
            lambda tax, values, cands: exact_expmech_distribution(tax, values, 1.0, candidates=cands),
            id="exact"),
    ])
    def test_empty_candidates_are_rejected(self, chain_tax, draw):
        with pytest.raises(ValueError, match=r"^candidates must be non-empty$"):
            draw(chain_tax, ["a", "b"], [])


def mixed_dataset(chain_tax):
    schema = Schema(
        (
            AttributeSchema("v", "numeric", 0.0, 100.0),
            AttributeSchema("c", "categorical", taxonomy_ref="t"),
        ),
        {"t": chain_tax},
    )
    values = np.linspace(5.0, 95.0, 12)
    labels = tuple(["a", "b", "root", "x"] * 3)
    return Dataset(schema, [values, labels])


class TestIrDpRelease:
    def test_one_draw_per_cluster(self):
        data = make_numeric_dataset(np.linspace(0, 100, 100))
        budget = PrivacyBudget(1.0, 1)
        release = ir_dp_release(data, 10, budget, seed=4, clamp=False)
        centroids = released_table(data, release_plans(data, "ir-only", 10)).column("v")
        noise = np.asarray(release.column("v")) - np.asarray(centroids)
        assert len(np.unique(np.round(noise, 12))) == 10

    def test_one_label_per_categorical_cluster(self, chain_tax):
        data = mixed_dataset(chain_tax)
        release = ir_dp_release(data, 4, PrivacyBudget(0.1, 2), seed=13).column("c")
        plan = individual_ranking(data.column("c"), 4, taxonomy=chain_tax)
        for cid in range(plan.n_clusters):
            assert len({release[i] for i in plan.members(cid)}) == 1

    def test_deterministic_per_seed(self):
        data = make_numeric_dataset(np.linspace(0, 100, 30))
        budget = PrivacyBudget(1.0, 1)
        first = ir_dp_release(data, 3, budget, seed=21)
        second = ir_dp_release(data, 3, budget, seed=21)
        third = ir_dp_release(data, 3, budget, seed=22)
        assert np.array_equal(first.column("v"), second.column("v"))
        assert not np.array_equal(first.column("v"), third.column("v"))

    def test_clamp_keeps_domain(self):
        data = make_numeric_dataset(np.linspace(0, 100, 40))
        budget = PrivacyBudget(0.01, 1)  # large noise
        clamped = np.asarray(ir_dp_release(data, 2, budget, seed=8).column("v"))
        free = np.asarray(ir_dp_release(data, 2, budget, seed=8, clamp=False).column("v"))
        assert clamped.min() >= 0.0 and clamped.max() <= 100.0
        assert free.min() < 0.0 or free.max() > 100.0
        assert np.array_equal(clamped, np.clip(free, 0.0, 100.0))

    def test_k_one_matches_plain_laplace_distribution(self):
        rng = np.random.default_rng(123)
        data = make_numeric_dataset(rng.uniform(0, 100, 200))
        budget = PrivacyBudget(1.0, 1)
        ir = np.asarray(ir_dp_release(data, 1, budget, seed=77, clamp=False).column("v"))
        plain = np.asarray(plain_laplace_release(data, budget, seed=77, clamp=False).column("v"))
        ir_noise = ir - np.asarray(data.column("v"))
        plain_noise = plain - np.asarray(data.column("v"))
        # the same draws land on different records, so recovering them by
        # subtraction re-rounds; the multisets agree to addition roundoff
        assert np.allclose(np.sort(ir_noise), np.sort(plain_noise), atol=1e-9, rtol=0)

    def test_k_one_on_sorted_data_is_identical_to_plain(self):
        data = make_numeric_dataset(np.linspace(0, 100, 50))
        budget = PrivacyBudget(2.0, 1)
        ir = ir_dp_release(data, 1, budget, seed=5, clamp=False)
        plain = plain_laplace_release(data, budget, seed=5, clamp=False)
        assert np.array_equal(ir.column("v"), plain.column("v"))

    def test_huge_epsilon_approaches_noiseless_centroids(self, chain_tax):
        data = mixed_dataset(chain_tax)
        budget = PrivacyBudget(1e6, 2)
        noisy = ir_dp_release(data, 3, budget, seed=2)
        bare = released_table(data, release_plans(data, "ir-only", 3))
        assert np.allclose(noisy.column("v"), bare.column("v"), atol=1e-3)
        assert noisy.column("c") == bare.column("c")

    def test_categorical_labels_stay_in_taxonomy(self, chain_tax):
        data = mixed_dataset(chain_tax)
        budget = PrivacyBudget(0.5, 2)
        release = ir_dp_release(data, 4, budget, seed=13)
        assert set(release.column("c")) <= chain_tax.nodes

    def test_record_count_and_schema_preserved(self, chain_tax):
        data = mixed_dataset(chain_tax)
        release = ir_dp_release(data, 3, PrivacyBudget(1.0, 2), seed=0)
        assert release.n == data.n
        assert release.schema is data.schema


class TestPlainLaplaceRelease:
    def test_fresh_noise_per_record(self):
        data = make_numeric_dataset(np.zeros(100))
        release = plain_laplace_release(data, PrivacyBudget(1.0, 1), seed=4, clamp=False)
        assert len(np.unique(release.column("v"))) == 100

    def test_huge_epsilon_recovers_records(self, chain_tax):
        data = mixed_dataset(chain_tax)
        release = plain_laplace_release(data, PrivacyBudget(1e6, 2), seed=6)
        assert np.allclose(release.column("v"), data.column("v"), atol=1e-3)
        assert release.column("c") == data.column("c")

    def test_categorical_candidates_span_whole_taxonomy(self, chain_tax):
        schema = Schema(
            (AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": chain_tax}
        )
        data = Dataset(schema, [("a",) * 20])
        release = plain_laplace_release(data, PrivacyBudget(0.1, 1), seed=5)
        # "a" spans only {a, x, root}; a per-record draw reaches the other branch
        assert set(release.column("c")) - {"a", "x", "root"}

    def test_scale_grows_with_attribute_count(self):
        # same total budget over more attributes means wider noise
        values = np.zeros(4000)
        one = plain_laplace_release(
            make_numeric_dataset(values), PrivacyBudget(1.0, 1), seed=9, clamp=False
        )
        four = plain_laplace_release(
            make_numeric_dataset(values), PrivacyBudget(1.0, 4), seed=9, clamp=False
        )
        assert np.std(four.column("v")) == pytest.approx(4 * np.std(one.column("v")), rel=1e-9)


class TestMvDpRelease:
    def test_shared_partition_noise(self):
        rng = np.random.default_rng(31)
        schema = Schema((
            AttributeSchema("p", "numeric", 0.0, 1.0),
            AttributeSchema("q", "numeric", 0.0, 1.0),
        ))
        data = Dataset(schema, [rng.random(60), rng.random(60)])
        release = mv_dp_release(data, 10, PrivacyBudget(1.0, 2), seed=3, clamp=False)
        bare = released_table(data, release_plans(data, "mv-only", 10))
        for name in ("p", "q"):
            noise = np.asarray(release.column(name)) - np.asarray(bare.column(name))
            assert len(np.unique(np.round(noise, 12))) == 6

    def test_categorical_rejected(self, chain_tax):
        data = mixed_dataset(chain_tax)
        with pytest.raises(DataError):
            mv_dp_release(data, 2, PrivacyBudget(1.0, 2), seed=0)

    def test_deterministic_per_seed(self):
        data = make_numeric_dataset(np.linspace(0, 100, 30))
        budget = PrivacyBudget(1.0, 1)
        first = mv_dp_release(data, 5, budget, seed=1)
        second = mv_dp_release(data, 5, budget, seed=1)
        assert np.array_equal(first.column("v"), second.column("v"))


class TestReleaseComposition:
    def test_release_is_plan_plus_one_substream_draw_per_cluster(self):
        rng = np.random.default_rng(17)
        schema = Schema((
            AttributeSchema("p", "numeric", 0.0, 1.0),
            AttributeSchema("q", "numeric", -5.0, 5.0),
        ))
        data = Dataset(schema, [rng.random(50), rng.uniform(-5.0, 5.0, 50)])
        k, budget, seed = 5, PrivacyBudget(0.5, 2), 41
        ir_plans = []
        for attr in schema:
            plan = individual_ranking(data.column(attr.name), k)
            ir_plans.append((plan.assignments, np.asarray(plan.centroids)))
        mv = multivariate_baseline(data, k)
        mv_plans = [(mv.assignments, mv.centroids[:, i]) for i in range(data.m)]
        identity = [(np.arange(data.n), np.asarray(data.column(a.name))) for a in schema]
        releases = (
            ("ir-dp", ir_dp_release(data, k, budget, seed), ir_plans),
            ("mv-dp", mv_dp_release(data, k, budget, seed), mv_plans),
            ("plain-laplace", plain_laplace_release(data, budget, seed), identity),
        )
        for method, release, plans in releases:
            for i, (attr, (assignments, centroids)) in enumerate(zip(schema, plans)):
                scale = noise_scale(method, delta=attr.sensitivity, budget=budget, k=k, n=data.n)
                draws = laplace_from_uniform(
                    attribute_substream(seed, i).random(len(centroids)), scale
                )
                expected = np.clip(
                    centroids[assignments] + draws[assignments], attr.lower, attr.upper
                )
                assert np.array_equal(release.column(attr.name), expected), (method, attr.name)
        for method, plans in (("ir-only", ir_plans), ("mv-only", mv_plans)):
            release = released_table(data, release_plans(data, method, k))
            for attr, (assignments, centroids) in zip(schema, plans):
                assert np.array_equal(release.column(attr.name), centroids[assignments])


def every_release(data, budget):
    """Calls of the three named releases and of `execute_release` for every method, k = 2."""
    releases = [
        lambda: ir_dp_release(data, 2, budget, 0),
        lambda: plain_laplace_release(data, budget, 0),
        lambda: mv_dp_release(data, 2, budget, 0),
    ]
    for method in METHODS:
        cfg = MechanismConfig(method, 2, budget, 0)
        releases.append(lambda cfg=cfg: execute_release(cfg, data))
    return releases


class TestOutOfDomainValues:
    """A numeric value outside its domain, or NaN, breaks the noise
    calibration; every release path rejects it before planning."""

    CASES = [(2, 1e6, "1000000.0"), (1, math.nan, "nan")]

    @staticmethod
    def bad_dataset(index, value):
        schema = Schema((
            AttributeSchema("a", "numeric", 0.0, 100.0),
            AttributeSchema("b", "numeric", 0.0, 100.0),
        ))
        column = np.array([5.0, 6.0, 7.0, 8.0])
        column[index] = value
        return Dataset(schema, [np.array([1.0, 2.0, 3.0, 4.0]), column])

    @pytest.mark.parametrize("index, value, shown", CASES)
    def test_every_method_rejects_the_value(self, index, value, shown):
        data = self.bad_dataset(index, value)
        message = f"record {index}, column 'b': value {shown} outside [0.0, 100.0]"
        for release in every_release(data, PrivacyBudget(1.0, 2)):
            with pytest.raises(DataError) as info:
                release()
            assert str(info.value) == message


class TestUnknownLabels:
    """A label outside its taxonomy would reach the kernel as a bare
    `TaxonomyError`; every release path rejects it before planning,
    naming the first such record and its column."""

    def test_every_method_rejects_the_label(self, chain_tax):
        schema = Schema(
            (
                AttributeSchema("v", "numeric", 0.0, 100.0),
                AttributeSchema("c", "categorical", taxonomy_ref="t"),
            ),
            {"t": chain_tax},
        )
        data = Dataset(schema, [np.array([1.0, 2.0, 3.0, 4.0]), ("a", "b", "zz", "qq")])
        for release in every_release(data, PrivacyBudget(1.0, 2)):
            with pytest.raises(DataError) as info:
                release()
            assert str(info.value) == "record 2, column 'c': label 'zz' not in taxonomy"


class TestErrorPrecedence:
    """Each label-taking entry point checks the empty cluster, then epsilon,
    then `sensitivity_q`, and maps labels last: candidates (sorted) before
    values (in input order). A faulty call names its first fault in that
    order, whatever else is wrong with it."""

    @pytest.mark.parametrize("empty", [False, True], ids=["values", "empty"])
    @pytest.mark.parametrize("epsilon", [1.0, float("nan")], ids=["eps", "bad-eps"])
    @pytest.mark.parametrize("q", [1.0, 0.0], ids=["q", "bad-q"])
    @pytest.mark.parametrize("cands", [None, ["root", "a"], ["root", "qq", "pp"], []],
                             ids=["spanned", "cands", "unknown-cand", "no-cands"])
    @pytest.mark.parametrize("unknown", [False, True], ids=["known", "unknown-value"])
    def test_exponential_mechanism_centroid(self, chain_tax, empty, epsilon, q, cands, unknown):
        values = [] if empty else ["a", "zz", "yy", "b"] if unknown else ["a", "b"]
        expected = (
            (ValueError, "empty cluster") if empty
            else (ValueError, "epsilon must be positive and finite, got nan") if epsilon != 1.0
            else (ValueError, "sensitivity_q must be positive and finite, got 0.0") if q != 1.0
            else (ValueError, "candidates must be non-empty") if cands == []
            else (TaxonomyError, "label 'pp' is not in the taxonomy") if cands and "pp" in cands
            else (TaxonomyError, "label 'zz' is not in the taxonomy") if unknown
            else None
        )
        call = lambda: exponential_mechanism_centroid(
            chain_tax, values, epsilon, q, np.random.default_rng(0), candidates=cands
        )
        if expected is None:
            assert call() in (cands or spanned_subtree(chain_tax, values))
            return
        with pytest.raises(ValueError) as info:
            call()
        assert (type(info.value), str(info.value)) == expected

    def test_taxonomy_wrappers(self, chain_tax):
        for call, message in [
            (lambda: marginality_centroid(chain_tax, []), "empty sample"),
            (lambda: marginality_centroid(chain_tax, ["a", "zz", "yy"]),
             "label 'zz' is not in the taxonomy"),
            (lambda: marginality_table(chain_tax, []), "empty value set"),
            # The table maps its distinct labels in sorted order.
            (lambda: marginality_table(chain_tax, ["a", "zz", "yy"]),
             "label 'yy' is not in the taxonomy"),
        ]:
            with pytest.raises(TaxonomyError, match=f"^{message}$"):
                call()

    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace"])
    @pytest.mark.parametrize("short_m", [False, True], ids=["m", "short-m"])
    @pytest.mark.parametrize("unknown", [False, True], ids=["known", "unknown-label"])
    @pytest.mark.parametrize("tiny", [False, True], ids=["eps", "underflowing-eps"])
    def test_perturb(self, chain_tax, method, short_m, unknown, tiny):
        """The budget is checked when `perturb` is called, a split over too
        few attributes before an epsilon per attribute that underflows to 0.
        A released plan reads its node ids from the plan, never a label of
        `data`: labels are checked, and mapped, by `release_plans`."""
        schema = Schema(
            tuple(AttributeSchema(name, "categorical", taxonomy_ref="t") for name in "cd"),
            {"t": chain_tax},
        )
        valid = Dataset(schema, [("a", "b", "x", "a"), ("b", "b", "y", "root")])
        data = valid.replace_record(1, ["zz", "b"]) if unknown else valid
        if unknown:
            with pytest.raises(DataError) as info:
                release_plans(data, method, 2)
            assert str(info.value) == "record 1, column 'c': label 'zz' not in taxonomy"
        budget = PrivacyBudget(5e-324 if tiny else 1.0, 1 if short_m else 2)
        cfg = MechanismConfig(method, 2, budget, 0)
        plans = list(release_plans(valid, method, 2))
        released = lambda table: [plan.centroids.tolist() for plan in perturb(table, plans, cfg)]
        if short_m:
            message = "budget split over m=1 attributes, but the data has 2"
        elif tiny:
            message = "epsilon must be positive and finite, got 0.0"
        else:
            assert released(data) == released(valid)
            assert len(released(data)) == 2
            return
        with pytest.raises(ValueError) as info:
            released(data)
        assert (type(info.value), str(info.value)) == (ValueError, message)


class TestBudgetCoversEveryAttribute:
    """Each attribute spends epsilon_total / m, so a budget split over
    fewer attributes than the data has would overspend."""

    data = Dataset(
        Schema(tuple(AttributeSchema(name, "numeric", 0.0, 10.0) for name in "pqr")),
        [np.arange(6.0), np.arange(6.0)[::-1], np.full(6, 2.0)],
    )

    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace", "mv-dp"])
    def test_noisy_release_rejects_a_smaller_m(self, method):
        message = "budget split over m=2 attributes, but the data has 3"
        cfg = MechanismConfig(method, 2, PrivacyBudget(1.0, 2), 0)
        assert _error(lambda: execute_release(cfg, self.data)) == message
        # `perturb` itself raises, before any plan is drawn from.
        plans = release_plans(self.data, method, 2)
        assert _error(lambda: perturb(self.data, plans, cfg)) == message

    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace", "mv-dp"])
    def test_epsilon_per_attribute_that_underflows_is_rejected(self, method):
        message = "epsilon must be positive and finite, got 0.0"
        budget = PrivacyBudget(5e-324, 3)
        assert _error(lambda: noise_scale(method, delta=10.0, budget=budget, k=2, n=6)) == message
        assert _error(lambda: execute_release(MechanismConfig(method, 2, budget, 0), self.data)) == message

    def test_larger_m_and_noiseless_releases_pass(self):
        for method in METHODS:
            execute_release(MechanismConfig(method, 2, PrivacyBudget(1.0, 4), 0), self.data)
        for method in ("ir-only", "mv-only"):
            execute_release(MechanismConfig(method, 2, PrivacyBudget(1.0, 1), 0), self.data)


class TestNoiseScaleOverflow:
    """An epsilon so small that delta / epsilon overflows is named as such,
    not as a Laplace scale of inf."""

    data = Dataset(
        Schema(tuple(AttributeSchema(name, "numeric", 0.0, 10.0) for name in "pq")),
        [np.array([1.0, 2.0, 3.0, 4.0]), np.array([5.0, 6.0, 7.0, 8.0])],
    )
    budget = PrivacyBudget(1e-308, 2)
    message = "noise scale overflows: epsilon 1e-308 is too small"

    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace", "mv-dp"])
    def test_noisy_methods_reject_it(self, method):
        assert _error(lambda: noise_scale(method, delta=10.0, budget=self.budget, k=2, n=4)) == self.message
        cfg = MechanismConfig(method, 2, self.budget, 0)
        assert _error(lambda: execute_release(cfg, self.data)) == self.message

    @pytest.mark.parametrize("method", ["ir-only", "mv-only"])
    def test_noiseless_methods_need_no_scale(self, method):
        assert noise_scale(method, delta=10.0, budget=self.budget, k=2, n=4) == 0.0
        execute_release(MechanismConfig(method, 2, self.budget, 0), self.data)

    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace"])
    def test_labels_release_at_the_same_epsilon(self, chain_tax, method):
        schema = Schema((AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": chain_tax})
        data = Dataset(schema, [("a", "b", "x", "a")])
        released = execute_release(MechanismConfig(method, 2, PrivacyBudget(1e-308, 1), 0), data)
        assert released.n == 4



@pytest.mark.parametrize("method", METHODS)
def test_release_plans_are_read_only_cluster_plans(method, chain_tax):
    rng = np.random.default_rng(8)
    attrs = [AttributeSchema("p", "numeric", 0.0, 10.0), AttributeSchema("q", "numeric", -1.0, 1.0)]
    columns = [rng.uniform(0.0, 10.0, 23), rng.uniform(-1.0, 1.0, 23)]
    if not method.startswith("mv-"):  # the multivariate baseline is numeric only
        attrs.append(AttributeSchema("c", "categorical", taxonomy_ref="t"))
        columns.append(tuple(rng.choice(["a", "b", "x", "y", "root"], 23).tolist()))
    data = Dataset(Schema(tuple(attrs), {"t": chain_tax}), columns)
    plans = list(release_plans(data, method, 4))
    assert len(plans) == data.m
    for plan in plans:
        assert isinstance(plan, ClusterPlan)
        for array in (plan.assignments, plan.sizes, plan.sorted_indices, plan.centroids):
            assert not array.flags.writeable
        assert plan.sizes.sum() == data.n
        assert len(plan.centroids) == plan.n_clusters
        assert np.array_equal(
            plan.assignments[plan.sorted_indices],
            np.repeat(np.arange(plan.n_clusters), plan.sizes),
        )
        bounds = np.concatenate(([0], np.cumsum(plan.sizes)))
        for j in range(plan.n_clusters):
            assert np.array_equal(plan.members(j), plan.sorted_indices[bounds[j]:bounds[j + 1]])


@pytest.mark.parametrize("method", ["ir-dp", "ir-only", "plain-laplace"])
def test_a_release_maps_each_label_column_once(method, monkeypatch):
    """The check maps each label column to node ids; plan and perturb use those ids."""
    data, _ = zipf_categorical(60)
    cfg = MechanismConfig(method, 4, PrivacyBudget(1.0, data.m), 5)
    expected = execute_release(cfg, data)
    plans = list(release_plans(data, method, 4))
    calls = []
    node_ids = Taxonomy.node_ids
    monkeypatch.setattr(
        Taxonomy, "node_ids", lambda tax, labels: calls.append(labels) or node_ids(tax, labels)
    )
    released = execute_release(cfg, data)
    assert all(map(np.array_equal, released.columns, expected.columns))
    assert calls == [data.columns[1], data.columns[2]]
    calls.clear()
    assert len(list(perturb(data, plans, cfg))) == data.m
    assert calls == []


def zipf_categorical(n, seed=23):
    """A numeric and two categorical columns of Zipf-skewed leaves of an 85-node tree."""
    parent = {}
    level = ["root"]
    for _ in range(3):
        level = [f"{p}.{i}" for p in level for i in range(4)]
        parent.update({child: child.rsplit(".", 1)[0] for child in level})
    tax = Taxonomy("root", parent)
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, len(level) + 1) ** 1.5
    columns = [rng.uniform(0.0, 1.0, n)]
    for _ in range(2):
        picks = rng.choice(len(level), size=n, p=weights / weights.sum())
        columns.append(tuple(level[i] for i in picks))
    schema = Schema(
        (
            AttributeSchema("v", "numeric", 0.0, 1.0),
            AttributeSchema("c0", "categorical", taxonomy_ref="t"),
            AttributeSchema("c1", "categorical", taxonomy_ref="t"),
        ),
        {"t": tax},
    )
    return Dataset(schema, columns), tax


def cluster_values(plan, column):
    """The values of `column` in each cluster of `plan`, cluster by cluster, in rank order."""
    return [[column[i] for i in plan.members(j).tolist()] for j in range(plan.n_clusters)]


def distinct_multisets(plan, column):
    return len({tuple(sorted(cluster)) for cluster in cluster_values(plan, column)})


@pytest.mark.parametrize("method", ["ir-dp", "ir-only", "plain-laplace"])
def test_records_names_the_node_ids_with_the_taxonomys_labels(method):
    """Released label plans hold node ids; `records` turns them into the taxonomy's own strings."""
    data, tax = zipf_categorical(43)
    cfg = MechanismConfig(method, 4, PrivacyBudget(1.0, data.m), 5)
    released = list(perturb(data, release_plans(data, method, 4), cfg))
    # One value per cluster, the label of its released node id, and the plan's own assignments.
    for index, clustered in enumerate(records(data, released)):
        plan = released[index]
        assert clustered.assignments is plan.assignments
        if index in (1, 2):
            assert len(clustered.values) == plan.n_clusters
            assert all(label is tax.labels[c] for label, c in zip(clustered.values, plan.centroids.tolist()))
        else:
            assert clustered.values is plan.centroids
    table = released_table(data, released)
    for index in (1, 2):
        column, plan = table.columns[index], released[index]
        assert plan.centroids.dtype.kind == "i" and not plan.centroids.flags.writeable
        assert type(column) is tuple and len(column) == data.n
        assert all(label is tax.labels[c] for label, c in zip(column, plan.per_record().tolist()))


class TestCategoricalDrawsPerMultiset:
    """A categorical release computes one CDF per distinct cluster multiset
    but must release what one `exponential_mechanism_centroid` call per
    cluster, in cluster order, releases."""

    @pytest.mark.parametrize("method, k, n", [
        ("ir-dp", 4, 120),  # n % k == 0
        ("ir-dp", 4, 123),  # a larger last cluster
        ("ir-dp", 1, 120),
        ("ir-dp", 120, 120),
        ("ir-dp", 70, 120),  # one cluster of n > k records
        ("plain-laplace", 1, 120),
    ])
    def test_release_equals_one_draw_per_cluster(self, method, k, n, monkeypatch):
        data, tax = zipf_categorical(n)
        cfg = MechanismConfig(method, k, PrivacyBudget(1.5, data.m), 31)
        streams = {}

        def recorded(seed, index):
            streams[index] = attribute_substream(seed, index)
            return streams[index]

        monkeypatch.setattr(mechanisms, "attribute_substream", recorded)
        release = execute_release(cfg, data)
        plans = list(release_plans(data, method, k))
        candidates = tax.nodes if method == "plain-laplace" else None
        for index in (1, 2):
            column, plan = data.columns[index], plans[index]
            if k < n // 2:
                assert distinct_multisets(plan, column) < plan.n_clusters  # groups repeat
            rng = attribute_substream(cfg.seed, index)
            expected = [
                exponential_mechanism_centroid(
                    tax, cluster, cfg.budget.epsilon_per_attribute, 1.0, rng, candidates=candidates,
                )
                for cluster in cluster_values(plan, column)
            ]
            assert release.columns[index] == tuple(expected[j] for j in plan.assignments)
            # Exactly one uniform per cluster left the release's substream.
            fresh = attribute_substream(cfg.seed, index)
            fresh.random(plan.n_clusters)
            assert streams[index].bit_generator.state == fresh.bit_generator.state

    def test_marginalities_run_once_per_distinct_multiset(self, monkeypatch):
        data, tax = zipf_categorical(400)
        k = 4
        calls = []
        kernel = Taxonomy.marginalities

        def counted(self, candidate_ids, value_ids):
            calls.append(None)
            return kernel(self, candidate_ids, value_ids)

        monkeypatch.setattr(Taxonomy, "marginalities", counted)
        execute_release(MechanismConfig("ir-dp", k, PrivacyBudget(1.0, data.m), 5), data)
        made = len(calls)
        bound = 0
        for column in data.columns[1:]:
            plan = individual_ranking(column, k, taxonomy=tax)
            distinct = distinct_multisets(plan, column)
            assert 2 * distinct < plan.n_clusters
            calls.clear()
            categorical_order_key(tax, column)
            # A centroid and a CDF per distinct multiset, plus the order key.
            bound += 2 * distinct + len(calls)
        assert made <= bound


    @pytest.mark.parametrize("method, k, n", [
        ("ir-dp", 4, 123),
        ("ir-dp", 70, 120),
        ("plain-laplace", 1, 60),
    ])
    def test_one_plan_draws_as_one_call_per_cluster_at_every_epsilon(self, method, k, n):
        data, tax = zipf_categorical(n)
        plans = list(release_plans(data, method, k))
        candidates = tax.nodes if method == "plain-laplace" else None
        for epsilon in (0.05, 0.9, 7.0, 300.0):
            cfg = MechanismConfig(method, k, PrivacyBudget(epsilon * data.m, data.m), 13)
            released = list(perturb(data, plans, cfg))
            for index in (1, 2):
                plan, column = plans[index], data.columns[index]
                u = attribute_substream(cfg.seed, index).random(plan.n_clusters)
                expected = tuple(
                    exponential_mechanism_centroid(
                        tax, cluster, cfg.budget.epsilon_per_attribute, 1.0,
                        FixedUniform(u[j]), candidates=candidates,
                    )
                    for j, cluster in enumerate(cluster_values(plan, column))
                )
                # The released centroids are node ids; `labels` names them.
                assert tuple(tax.labels[c] for c in released[index].centroids) == expected

    def test_a_draw_from_a_label_plan_scores_nothing(self, monkeypatch):
        data, tax = zipf_categorical(400)
        plans = list(release_plans(data, "ir-dp", 4))
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        # Every marginality and distance runs through the one pair-distance lookup.
        for owner, name in [(Taxonomy, "marginalities"), (Taxonomy, "_pair_distances"),
                            (ClusterPlan, "distinct_clusters")]:
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        for epsilon in (0.5, 2.0):
            cfg = MechanismConfig("ir-dp", 4, PrivacyBudget(epsilon, data.m), 3)
            assert len(list(perturb(data, plans, cfg))) == data.m
        assert calls == []


    def test_a_plain_laplace_draw_scores_labels_in_blocks(self, monkeypatch):
        data, tax = zipf_categorical(400)
        plans = list(release_plans(data, "plain-laplace", 1))
        cfg = MechanismConfig("plain-laplace", 1, PrivacyBudget(2.0, data.m), 3)
        labels = lambda: [plan.centroids.tolist() for plan in perturb(data, plans, cfg)][1:]
        whole = labels()
        calls = []
        kernel = Taxonomy.distance_rows

        def counted(self, ids):
            calls.append(len(ids))
            return kernel(self, ids)

        def unused(*args):
            raise AssertionError("a plain-laplace label is scored as a one-value fold")

        monkeypatch.setattr(Taxonomy, "marginalities", unused)
        monkeypatch.setattr(Taxonomy, "distance_rows", counted)
        # Two labels' rows of node x level cells per block: the draws do not move.
        monkeypatch.setattr(taxonomy_module, "_BLOCK_CELLS", 2 * len(tax) * len(tax._paths))
        assert labels() == whole
        # One call per label column, with every distinct label of the column.
        assert calls == [len(set(data.columns[1])), len(set(data.columns[2]))]


class FixedUniform:
    """A generator stand-in whose `random()` returns one given uniform."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestDpPropertyCheck:
    def _scalar_pair(self):
        base = make_numeric_dataset([0.0, 0.0], 0.0, 1.0)
        return neighbor_pair(base, 0, [1.0])

    def test_requires_enough_trials(self):
        pair = self._scalar_pair()
        with pytest.raises(ValueError, match="1000"):
            dp_property_check(lambda d, rng: 0, pair, 1.0, trials=999)

    def test_data_independent_mechanism_passes(self):
        pair = self._scalar_pair()
        report = dp_property_check(lambda d, rng: int(rng.random() < 0.5), pair, 0.5, 2000)
        assert report.ok
        assert report.max_log_ratio < 0.5

    def test_correct_shared_noise_mechanism_passes(self):
        # one cluster of k = 2, one shared draw at scale delta / (k * eps);
        # outcome bucketed at the midpoint between the two centroids
        pair = self._scalar_pair()
        epsilon = 2.0
        scale = 1.0 / (2 * epsilon)

        def mechanism(data, rng):
            centroid = float(np.mean(data.column("v")))
            return int(centroid + laplace_from_uniform(rng.random(), scale) >= 0.25)

        report = dp_property_check(mechanism, pair, epsilon, trials=20_000, seed=10)
        assert report.ok

    def test_record_sensitivity_at_cluster_scale_is_flagged(self):
        # same noise scale applied to a raw record instead of the centroid:
        # the shift is k times larger than the scale was calibrated for
        pair = self._scalar_pair()
        epsilon = 2.0
        scale = 1.0 / (2 * epsilon)

        def mechanism(data, rng):
            record = float(data.column("v")[0])
            return int(record + laplace_from_uniform(rng.random(), scale) >= 0.5)

        report = dp_property_check(mechanism, pair, epsilon, trials=20_000, seed=10)
        assert not report.ok
        assert report.max_log_ratio > epsilon

    def test_exponential_mechanism_passes(self, chain_tax):
        schema = Schema(
            (AttributeSchema("c", "categorical", taxonomy_ref="t"),), {"t": chain_tax}
        )
        pair = neighbor_pair(Dataset(schema, [("a",)]), 0, ["b"])
        nodes = sorted(chain_tax.nodes)

        def mechanism(data, rng):
            return exponential_mechanism_centroid(
                chain_tax, list(data.column("c")), 1.0, 1.0, rng, candidates=nodes
            )

        report = dp_property_check(mechanism, pair, 1.0, trials=20_000, seed=2)
        assert report.ok
        assert {b.outcome for b in report.buckets} <= set(nodes)

    def test_report_shape(self):
        pair = self._scalar_pair()
        report = dp_property_check(lambda d, rng: "x", pair, 1.0, 1000)
        assert report.epsilon == 1.0 and report.trials == 1000
        assert len(report.buckets) == 1
        bucket = report.buckets[0]
        assert bucket.count_base == bucket.count_modified == 1000
        assert bucket.log_ratio == 0.0 and not bucket.flagged
