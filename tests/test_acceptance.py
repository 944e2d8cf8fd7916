"""Acceptance gate: ten end-to-end checks of the release pipeline.

Each test prints exactly one verdict line (run with `pytest -s` to see
them as they happen) and covers one contract: the centroid-shift bound,
the shared-noise structure, noise calibration, the k=1 equivalence, the
noise-scale crossover, utility trends on synthetic data, variance
preservation against the multivariate baseline, exponential-mechanism
exactness, metric identities, and sweep determinism.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from microdp import (
    AttributeSchema,
    Dataset,
    PrivacyBudget,
    Schema,
    SensitivityProbe,
    SweepSpec,
    Taxonomy,
    exact_dp_ratio,
    exact_expmech_distribution,
    exponential_mechanism_centroid,
    individual_ranking,
    ir_dp_release,
    lemma1_check,
    marginality_centroid,
    mv_dp_release,
    noise_scale,
    plain_laplace_release,
    relative_error,
    run_sweep,
    variance_delta,
    write_dataset,
)
from microdp.mechanisms import release_plans
from microdp.metrics import jensen_shannon

from conftest import make_numeric_dataset, make_synthetic, released_table


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def synthetic() -> Dataset:
    return make_synthetic()


def test_01_centroid_shift_bound_battery():
    """1000 randomized probes stay within delta/k; hand case hits it exactly."""
    started = time.perf_counter()
    hand = lemma1_check(SensitivityProbe((1.0, 2.0, 3.0, 4.0), k=2, delta_cap=4.0))
    rng = np.random.default_rng(20260825)
    failures = 0
    worst = 0.0
    for _ in range(1000):
        k = int(rng.choice([2, 3, 5, 7]))
        n = int(rng.integers(max(k, 5), 51))
        if rng.random() < 0.5:
            column = rng.uniform(0.0, 100.0, n)
            cap = 100.0
        else:
            centers = rng.uniform(0.0, 100.0, 3)
            column = rng.choice(centers, n) + rng.normal(0.0, 1.0, n)
            cap = 10.0
        report = lemma1_check(SensitivityProbe(tuple(column), k=k, delta_cap=cap))
        worst = max(worst, report.max_shift / report.bound)
        failures += not report.passed
    elapsed = time.perf_counter() - started
    ok = failures == 0 and hand.max_shift == 2.0 and elapsed < 30.0
    verdict(
        1, ok,
        f"1000 probes, {failures} violations, worst shift/bound {worst:.4f}, "
        f"hand case {hand.max_shift}, {elapsed:.1f}s",
    )


def test_02_shared_noise_structure(synthetic):
    """One draw per cluster; per-record draws provably blow the budget."""
    distinct_ok = True
    for k in (2, 25, 100):
        release = ir_dp_release(synthetic, k, PrivacyBudget(1.0, synthetic.m), seed=5 + k, clamp=False)
        limit = math.ceil(synthetic.n / k)
        for name in synthetic.schema.names:
            distinct_ok &= len(np.unique(release.column(name))) <= limit
    chain = Taxonomy("root", {"x": "root", "y": "root", "a": "x", "b": "y"})
    nodes = sorted(chain.nodes)
    cluster_a = ["a", "a", "b", "b"]
    cluster_b = ["a", "a", "a", "b"]
    shared = exact_dp_ratio(chain, cluster_a, cluster_b, 1.0, candidates=nodes)
    broken = exact_dp_ratio(chain, cluster_a, cluster_b, 1.0, shared=False, candidates=nodes)
    ok = distinct_ok and shared <= 1.0 + 1e-9 and broken > 1.0
    verdict(
        2, ok,
        f"distinct values <= ceil(n/k) for k in (2, 25, 100); log ratios: "
        f"shared {shared:.4f} <= 1, per-record {broken:.4f} > 1",
    )


def test_03_noise_calibration():
    """Per-cluster noise has standard deviation sqrt(2) * delta * m / (k * eps)."""
    worst = 0.0
    for i, (k, eps, m) in enumerate([(2, 1.0, 1), (25, 10.0, 8), (7, 2.0, 3)]):
        n = k * 100_000
        rng = np.random.default_rng(777 + i)
        column = rng.uniform(0.0, 1000.0, n)
        data = Dataset(Schema((AttributeSchema("v", "numeric", 0.0, 1000.0),)), [column])
        release = ir_dp_release(data, k, PrivacyBudget(eps, m), seed=50 + i, clamp=False)
        plan = individual_ranking(column, k)
        noise = np.asarray(release.column("v")) - np.asarray(plan.centroids)[plan.assignments]
        expected = math.sqrt(2.0) * 1000.0 * m / (k * eps)
        worst = max(worst, abs(float(np.std(noise)) - expected) / expected)
    ok = worst < 0.02
    verdict(3, ok, f"worst std deviation from target {worst:.4%} over three (k, eps, m) settings")


def test_04_k_equal_one_matches_plain_laplace():
    """At k = 1 both mechanisms share the m * delta / eps scale and the draws."""
    budget = PrivacyBudget(1.0, 3)
    scale_ir = noise_scale("ir-dp", delta=1000.0, budget=budget, k=1)
    scale_plain = noise_scale("plain-laplace", delta=1000.0, budget=budget)
    rng = np.random.default_rng(4242)
    data = make_numeric_dataset(rng.uniform(0.0, 1000.0, 100_000), 0.0, 1000.0)
    original = np.asarray(data.column("v"))
    ir = np.asarray(ir_dp_release(data, 1, budget, seed=4242, clamp=False).column("v"))
    plain = np.asarray(plain_laplace_release(data, budget, seed=4242, clamp=False).column("v"))
    std_ir = float(np.std(ir - original))
    std_plain = float(np.std(plain - original))
    rel = abs(std_ir - std_plain) / std_plain
    ok = scale_ir == scale_plain and rel < 0.01
    verdict(
        4, ok,
        f"scale identity exact ({scale_ir} == {scale_plain}), "
        f"empirical noise scales differ by {rel:.4%} over 100000 records",
    )


def test_05_noise_scale_crossover():
    """ir-dp and mv-dp scales cross exactly at k = n / m."""
    n, m = 1080, 13
    budget = PrivacyBudget(1.0, m)
    at = lambda method, k: noise_scale(method, delta=1.0, budget=budget, k=k, n=n)
    k_star = n / m
    rel = abs(at("ir-dp", k_star) - at("mv-dp", k_star)) / at("ir-dp", k_star)
    ordered = all(
        (at("mv-dp", k) > at("ir-dp", k)) == (k < k_star)
        for k in range(1, n + 1)
        if k != k_star
    )
    ok = rel < 1e-12 and ordered and int(k_star) == 83
    verdict(
        5, ok,
        f"scales equal at k* = {k_star:.2f} (rel diff {rel:.1e}); mv-dp noisier "
        f"below k*, ir-dp noisier above, for every integer k in 1..{n}",
    )


def test_06_utility_trend_against_plain_laplace(synthetic):
    """Mean RE: ir-dp beats plain Laplace everywhere; large k approaches no-noise.

    Comparisons run without clamping: at tight budgets clamping saturates
    both methods at the domain edges and the measured quantity would be
    the domain width, not the noise scale.
    """
    started = time.perf_counter()
    runs = 10
    budget_for = lambda eps: PrivacyBudget(eps, synthetic.m)
    plain_re = {}
    for eps in (0.1, 1.0, 10.0):
        values = [
            relative_error(
                synthetic, plain_laplace_release(synthetic, budget_for(eps), 1000 + r, clamp=False)
            )[1]
            for r in range(runs)
        ]
        plain_re[eps] = float(np.mean(values))
    losses = 0
    worst_margin = math.inf
    ir_at_large_k = None
    for eps in (0.1, 1.0, 10.0):
        for k in range(2, 101):
            values = [
                relative_error(
                    synthetic, ir_dp_release(synthetic, k, budget_for(eps), 1000 + r, clamp=False)
                )[1]
                for r in range(runs)
            ]
            ir = float(np.mean(values))
            losses += ir >= plain_re[eps]
            worst_margin = min(worst_margin, (plain_re[eps] - ir) / plain_re[eps])
            if eps == 10.0 and k == 100:
                ir_at_large_k = ir
    bare_release = released_table(synthetic, release_plans(synthetic, "ir-only", 100))
    bare = relative_error(synthetic, bare_release)[1]
    gap = abs(ir_at_large_k - bare) / bare
    elapsed = time.perf_counter() - started
    ok = losses == 0 and gap < 0.10 and elapsed < 300.0
    verdict(
        6, ok,
        f"ir-dp < plain at all 297 (k, eps) points (worst margin {worst_margin:.1%}), "
        f"eps=10 k=100 sits {gap:.1%} above the noise-free floor, {elapsed:.0f}s",
    )


def test_07_variance_preservation_against_multivariate(synthetic):
    """ir-dp changes attribute variances less than mv-dp in >= 90% of cells."""
    runs = 10
    wins = total = 0
    for eps in (1.0, 10.0):
        budget = PrivacyBudget(eps, synthetic.m)
        for k in (25, 50, 100):
            ir_acc = {name: [] for name in synthetic.schema.names}
            mv_acc = {name: [] for name in synthetic.schema.names}
            for r in range(runs):
                ir = variance_delta(synthetic, ir_dp_release(synthetic, k, budget, 1234 + r))
                mv = variance_delta(synthetic, mv_dp_release(synthetic, k, budget, 9876 + r))
                for name in synthetic.schema.names:
                    ir_acc[name].append(ir[name])
                    mv_acc[name].append(mv[name])
            for name in synthetic.schema.names:
                total += 1
                wins += float(np.mean(ir_acc[name])) <= float(np.mean(mv_acc[name]))
    ok = wins / total >= 0.90
    verdict(7, ok, f"ir-dp variance delta <= mv-dp in {wins}/{total} attribute cells")


def test_08_exponential_mechanism_exactness():
    """Sampled label frequencies match the closed-form distribution."""
    chain = Taxonomy("root", {"x": "root", "y": "root", "a": "x", "b": "y"})
    wide = Taxonomy(
        "any",
        {
            "tech": "any", "health": "any",
            "dev": "tech", "ops": "tech", "sre": "tech",
            "nurse": "health", "doctor": "health",
        },
    )
    mixed = Taxonomy("root", {"x": "root", "y": "root", "a": "x", "b": "x", "c": "y"})
    trials = 100_000
    worst_z = 0.0
    for tax, cluster, seed in [
        (chain, ["a", "a", "b"], 101),
        (wide, ["dev", "ops", "nurse"], 102),
        (mixed, ["a", "a", "b", "c"], 103),
    ]:
        exact = exact_expmech_distribution(tax, cluster, 2.0)
        rng = np.random.default_rng(seed)
        counts = {label: 0 for label in exact}
        for _ in range(trials):
            counts[exponential_mechanism_centroid(tax, cluster, 2.0, 1.0, rng)] += 1
        for label, p in exact.items():
            sigma = math.sqrt(trials * p * (1.0 - p))
            worst_z = max(worst_z, abs(counts[label] - trials * p) / sigma)
    cluster = ["dev", "dev", "ops"]
    target = marginality_centroid(wide, cluster)
    rng = np.random.default_rng(104)
    hits = sum(
        exponential_mechanism_centroid(wide, cluster, 1e6, 1.0, rng) == target
        for _ in range(trials)
    )
    limit_freq = hits / trials
    ok = worst_z <= 3.0 and limit_freq > 0.999
    verdict(
        8, ok,
        f"worst frequency deviation {worst_z:.2f} sigma over three taxonomies, "
        f"huge-epsilon limit picks the centroid with frequency {limit_freq:.4f}",
    )


def test_09_metric_identities():
    """Self-comparisons are exact; the frozen divergence value reproduces."""
    p = np.array([0.25, 0.25, 0.5])
    identity = jensen_shannon(p, p)
    disjoint = jensen_shannon([1.0, 0.0], [0.0, 1.0])
    hand = jensen_shannon([1.0, 0.0], [0.5, 0.5])
    rng = np.random.default_rng(6)
    symmetric = True
    for _ in range(25):
        a, b = rng.random(7), rng.random(7)
        a, b = a / a.sum(), b / b.sum()
        symmetric &= abs(jensen_shannon(a, b) - jensen_shannon(b, a)) <= 1e-12
    data = make_numeric_dataset(rng.uniform(0.0, 100.0, 400))
    re_identity = relative_error(data, data)[1]
    ok = (
        identity == 0.0
        and abs(disjoint - 1.0) <= 1e-12
        and abs(hand - 0.31128) <= 1e-5
        and symmetric
        and re_identity == 0.0
    )
    verdict(
        9, ok,
        f"JSD(P,P)={identity}, disjoint={disjoint:.6f}, point-mass vs fair coin "
        f"{hand:.6f}, symmetric to 1e-12, identity RE {re_identity}",
    )


def test_10_sweep_determinism(synthetic, tmp_path):
    """The same master seed reproduces sweep outputs byte for byte."""
    data_path = tmp_path / "synthetic.csv"
    write_dataset(synthetic, data_path)
    blocks = [
        f"[{attr.name}]\nkind = numeric\nlower = {attr.lower!r}\nupper = {attr.upper!r}\n"
        for attr in synthetic.schema
    ]
    schema_path = tmp_path / "schema.ini"
    schema_path.write_text("\n".join(blocks), encoding="utf-8")
    spec_for = lambda name: SweepSpec(
        data_path=str(data_path),
        schema_path=str(schema_path),
        methods=("ir-dp", "plain-laplace"),
        k_values=(2, 25),
        epsilon_values=(1.0, 10.0),
        runs=3,
        master_seed=99,
        out_path=str(tmp_path / name),
    )
    run_sweep(spec_for("first.csv"))
    run_sweep(spec_for("second.csv"))
    csv_same = (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    sidecar_same = (
        (tmp_path / "first.csv.runs.json").read_bytes()
        == (tmp_path / "second.csv.runs.json").read_bytes()
    )
    verdict(
        10, csv_same and sidecar_same,
        "rerun with master seed 99 is byte-identical (aggregate CSV and per-run sidecar)",
    )
