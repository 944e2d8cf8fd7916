from __future__ import annotations

import io
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import microdp
from microdp import taxonomy as taxonomy_module
from microdp import (
    Taxonomy,
    TaxonomyError,
    categorical_order_key,
    load_taxonomy,
    marginality,
    marginality_centroid,
    marginality_table,
    spanned_subtree,
)

from conftest import random_taxonomy


def naive_ancestors(tax: Taxonomy, label: str) -> set[str]:
    """Independent re-derivation by walking the parent map."""
    out = {label}
    cur = label
    while cur != tax.root:
        cur = next(p for c, p in tax._parent.items() if c == cur)
        out.add(cur)
    return out


def naive_distance(tax: Taxonomy, a: str, b: str) -> float:
    pa, pb = naive_ancestors(tax, a), naive_ancestors(tax, b)
    union = len(pa | pb)
    return math.log2(1.0 + (union - len(pa & pb)) / union)


class TestAncestors:
    def test_root_is_its_own_ancestor_set(self, chain_tax):
        assert chain_tax.ancestors("root") == {"root"}

    def test_leaf_chain(self, chain_tax):
        assert chain_tax.ancestors("a") == {"a", "x", "root"}

    def test_unknown_label(self, chain_tax):
        with pytest.raises(TaxonomyError):
            chain_tax.ancestors("nope")


class TestSemanticDistance:
    def test_identity(self, chain_tax):
        assert chain_tax.semantic_distance("a", "a") == 0.0

    def test_two_leaves_under_different_parents(self, chain_tax):
        # ancestor sets {a,x,root} and {b,y,root}: 4 non-common out of 5
        expected = math.log2(1.0 + 4.0 / 5.0)
        assert chain_tax.semantic_distance("a", "b") == pytest.approx(expected, abs=1e-12)
        assert round(expected, 5) == 0.848

    def test_root_versus_direct_child(self, chain_tax):
        assert chain_tax.semantic_distance("root", "x") == pytest.approx(
            math.log2(1.5), abs=1e-12
        )

    def test_metric_properties_on_random_triples(self):
        """Non-negativity, the identity axiom, symmetry and the triangle
        inequality over at least 1000 random triples."""
        rng = np.random.default_rng(1337)
        checked = 0
        while checked < 1000:
            tax = random_taxonomy(rng, size=int(rng.integers(3, 25)))
            labels = sorted(tax.nodes)
            for _ in range(25):
                a, b, c = (labels[int(rng.integers(0, len(labels)))] for _ in range(3))
                dab = tax.semantic_distance(a, b)
                dba = tax.semantic_distance(b, a)
                assert dab >= 0.0
                assert (dab == 0.0) == (a == b)
                assert dab == dba
                assert dab < 1.0
                assert dab <= tax.semantic_distance(a, c) + tax.semantic_distance(c, b) + 1e-12
                assert dab == pytest.approx(naive_distance(tax, a, b), abs=1e-12)
                checked += 1


class TestMarginality:
    def test_singleton_sample_scores_zero_for_itself(self, chain_tax):
        assert marginality(chain_tax, ["a"], "a") == 0.0

    def test_root_against_two_leaves(self, chain_tax):
        expected = 2.0 * math.log2(1.0 + 2.0 / 3.0)
        assert marginality(chain_tax, ["a", "b"], "root") == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.47393, abs=5e-6)

    def test_multiset_semantics(self, chain_tax):
        once = marginality(chain_tax, ["a", "b"], "root")
        thrice = marginality(chain_tax, ["a", "a", "a", "b", "b", "b"], "root")
        assert thrice == pytest.approx(3 * once, rel=1e-12)

    def test_identical_values_score_zero(self, chain_tax):
        assert marginality(chain_tax, ["b", "b", "b"], "b") == 0.0

    def test_empty_value_set(self, chain_tax):
        with pytest.raises(TaxonomyError):
            marginality(chain_tax, [], "a")

    def test_unknown_candidate(self, chain_tax):
        with pytest.raises(TaxonomyError):
            marginality(chain_tax, ["a"], "zzz")

    def test_table_matches_pointwise_scores(self, wide_tax):
        values = ["dev", "dev", "nurse", "sre"]
        table = marginality_table(wide_tax, values)
        assert set(table) == {"dev", "nurse", "sre"}
        for label, score in table.items():
            assert score == pytest.approx(marginality(wide_tax, values, label), abs=1e-12)
            assert score >= 0.0


class TestMarginalityCentroid:
    def test_unanimous_sample(self, chain_tax):
        assert marginality_centroid(chain_tax, ["a", "a", "a"]) == "a"

    def test_two_leaf_sample_by_exhaustive_argmin(self, chain_tax):
        # candidates are the spanned nodes {a, b, root, x, y}; recompute
        # every score and take the argmin independently
        sample = ["a", "b"]
        scores = {
            c: marginality(chain_tax, sample, c)
            for c in sorted(spanned_subtree(chain_tax, sample))
        }
        best = min(sorted(scores), key=lambda c: (scores[c], c))
        assert marginality_centroid(chain_tax, sample) == best
        assert best == "a"  # a and b tie at ~0.848, below root's ~1.474

    def test_permutation_invariance(self, wide_tax):
        sample = ["dev", "nurse", "sre", "dev", "doctor"]
        expected = marginality_centroid(wide_tax, sample)
        rng = np.random.default_rng(7)
        for _ in range(10):
            shuffled = list(sample)
            rng.shuffle(shuffled)
            assert marginality_centroid(wide_tax, shuffled) == expected

    def test_centroid_never_more_marginal_than_sample_members(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            tax = random_taxonomy(rng, size=int(rng.integers(4, 20)))
            labels = sorted(tax.nodes)
            sample = [labels[int(rng.integers(0, len(labels)))] for _ in range(6)]
            centroid = marginality_centroid(tax, sample)
            c_score = marginality(tax, sample, centroid)
            for member in set(sample):
                assert c_score <= marginality(tax, sample, member) + 1e-12

    def test_centroid_lies_in_spanned_subtree(self):
        rng = np.random.default_rng(4242)
        for _ in range(50):
            tax = random_taxonomy(rng, size=int(rng.integers(4, 20)))
            labels = sorted(tax.nodes)
            sample = [labels[int(rng.integers(0, len(labels)))] for _ in range(5)]
            assert marginality_centroid(tax, sample) in spanned_subtree(tax, sample)


def exactness_cases():
    """Random trees plus chains 59 and 299 deep (the latter past the uint8
    shared-count range), each with skewed value multisets."""
    rng = np.random.default_rng(2718)
    taxonomies = [random_taxonomy(rng, size=int(rng.integers(2, 80))) for _ in range(24)]
    for length in (60, 300):
        chain = [f"c{i:03d}" for i in range(length)]
        taxonomies.append(Taxonomy(chain[0], {chain[i]: chain[i - 1] for i in range(1, length)}))
    for tax in taxonomies:
        labels = sorted(tax.nodes)
        for _ in range(3):
            size = int(rng.integers(1, 40))
            picks = rng.zipf(1.5, size=size) % len(labels)
            yield tax, [labels[int(i)] for i in picks]


class TestArrayKernelExactness:
    """The array kernel must reproduce the scalar formulas bit for bit."""

    @pytest.fixture(autouse=True, params=["one block", "many blocks"])
    def block_size(self, request, monkeypatch):
        if request.param == "many blocks":
            monkeypatch.setattr(taxonomy_module, "_BLOCK_CELLS", 5)

    def test_marginality_table_equals_scalar_marginality(self):
        for tax, values in exactness_cases():
            table = marginality_table(tax, values)
            assert list(table) == sorted(set(values))
            for label, score in table.items():
                assert score == marginality(tax, values, label)

    def test_centroid_equals_strict_scan_of_scalar_marginality(self):
        for tax, values in exactness_cases():
            best_label, best_score = "", math.inf
            for cand in sorted(spanned_subtree(tax, values)):
                score = marginality(tax, values, cand)
                if score < best_score:
                    best_label, best_score = cand, score
            assert marginality_centroid(tax, values) == best_label

    def test_order_key_equals_scalar_definition(self):
        for tax, values in exactness_cases():
            scores = {label: marginality(tax, values, label) for label in sorted(set(values))}
            reference = max(sorted(scores), key=lambda lab: scores[lab])
            ordered = sorted(scores, key=lambda lab: (tax.semantic_distance(lab, reference), lab))
            expected = {label: rank for rank, label in enumerate(ordered)}
            assert categorical_order_key(tax, values) == expected


def _slot_shapes(tax: Taxonomy) -> dict:
    out = {}
    for slot in Taxonomy.__slots__:
        value = getattr(tax, slot)
        out[slot] = value.shape if isinstance(value, np.ndarray) else len(value)
    return out


def test_order_key_runs_in_bounded_memory_and_keeps_no_state():
    rng = np.random.default_rng(10_000)
    tax = random_taxonomy(rng, size=10_000)
    labels = sorted(tax.nodes)
    column = [labels[int(i)] for i in rng.integers(0, len(labels), size=20_000)]
    shapes = _slot_shapes(tax)
    tracemalloc.start()
    try:
        started = time.perf_counter()
        key = categorical_order_key(tax, column)
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(key.values()) == list(range(len(set(column))))
    assert peak < 64 * 2**20
    assert elapsed < 30.0
    assert not hasattr(tax, "_dist_cache")
    assert _slot_shapes(tax) == shapes


def test_unknown_label_error_does_not_depend_on_hash_seed():
    # Labels are checked in input order, so the first unknown one is named
    # under every PYTHONHASHSEED.
    script = (
        "from microdp import Taxonomy, spanned_subtree\n"
        "try:\n"
        "    spanned_subtree(Taxonomy('r', {'a': 'r'}), ['zz', 'qq', 'yy'])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(microdp.__file__))
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "label 'zz' is not in the taxonomy", (seed, proc.stdout)


class TestLoader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "jobs.tree"
        path.write_text("any\nany\ttech\nany\thealth\ntech\tdev\n", encoding="utf-8")
        tax = load_taxonomy(path)
        assert tax.root == "any"
        assert tax.nodes == {"any", "tech", "health", "dev"}
        assert tax.ancestors("dev") == {"dev", "tech", "any"}

    def test_from_stream(self):
        tax = load_taxonomy(io.StringIO("r\nr\ta\nr\tb\n"))
        assert tax.nodes == {"r", "a", "b"}

    def test_one_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "jobs.tree"
        path.write_text("\ufeffany\nany\ttech\n", encoding="utf-8")
        assert load_taxonomy(path).nodes == {"any", "tech"}
        assert load_taxonomy(io.StringIO("\ufeffroot\n")).root == "root"
        # A second mark stays, as in a CSV header.
        path.write_text("\ufeff\ufeffany\n", encoding="utf-8")
        assert load_taxonomy(path).root == "\ufeffany"
        assert load_taxonomy(io.StringIO("\ufeff\ufeffroot\n")).root == "\ufeffroot"

    def test_duplicate_child_rejected(self):
        with pytest.raises(TaxonomyError, match="already has a parent"):
            load_taxonomy(io.StringIO("r\nr\ta\nr\ta\n"))

    def test_unknown_parent_rejected(self):
        with pytest.raises(TaxonomyError, match="is not a node"):
            load_taxonomy(io.StringIO("r\nq\ta\n"))

    def test_cycle_rejected(self):
        with pytest.raises(TaxonomyError, match="cycle"):
            load_taxonomy(io.StringIO("r\nb\ta\na\tb\n"))

    def test_empty_file_rejected(self):
        with pytest.raises(TaxonomyError, match="empty"):
            load_taxonomy(io.StringIO("\n\n"))

    def test_malformed_edge_rejected(self):
        with pytest.raises(TaxonomyError, match="expected"):
            load_taxonomy(io.StringIO("r\nr a\n"))

    def test_root_with_parent_rejected(self):
        with pytest.raises(TaxonomyError, match="already has a parent|root"):
            load_taxonomy(io.StringIO("r\na\tr\n"))
