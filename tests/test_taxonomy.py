from __future__ import annotations

import io
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import random_taxonomy, traced_peak


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


def kernel_row(tax, ids):
    """`Taxonomy.spanned_marginalities` of the one multiset `ids`."""
    (cands,), (scores,) = tax.spanned_marginalities(np.sort(ids)[None, :])
    return cands, scores


@st.composite
def trees(draw, max_depth):
    """A random tree 0 to `max_depth` levels deep with mixed fan-outs.

    Labels are shuffled, so the root's node id and the sorted-label order
    of parents and children vary, and the edges are inserted in shuffled
    order, so children often come before their parents."""
    size = draw(st.integers(1, 30))
    names = [f"n{i:02d}" for i in draw(st.permutations(range(size)))]
    depth = [0]
    edges = []
    for node in range(1, size):
        up = draw(st.sampled_from([i for i in range(node) if depth[i] < max_depth]))
        depth.append(depth[up] + 1)
        edges.append((names[node], names[up]))
    return Taxonomy(names[0], dict(draw(st.permutations(edges))))


def naive_path(tax: Taxonomy, label: str) -> list[str]:
    """`label`'s ancestors from the root down, by scanning the parent map."""
    path = [label]
    while path[0] != tax.root:
        path.insert(0, next(p for c, p in tax._parent.items() if c == path[0]))
    return path


class TestConstruction:
    """The array form equals a plain rebuild from the parent map."""

    @settings(max_examples=300, deadline=None)
    @given(tax=trees(6))
    def test_equals_a_rebuild_from_the_parent_map(self, tax):
        labels = sorted({tax.root, *tax._parent})
        ids = {label: i for i, label in enumerate(labels)}
        paths = [naive_path(tax, label) for label in labels]
        assert tax.labels == tuple(labels)
        assert tax.nodes == set(labels)
        assert len(tax) == len(labels)
        assert all(label in tax for label in labels) and "absent" not in tax
        assert tax._depth.tolist() == [len(path) - 1 for path in paths]
        levels = range(max(map(len, paths)))
        expected = [[ids[path[j]] if j < len(path) else i for i, path in enumerate(paths)] for j in levels]
        assert tax._paths.tolist() == expected
        for label in labels:
            assert tax.ancestors(label) == naive_ancestors(tax, label)

    @pytest.mark.parametrize(
        "edges, named",
        [
            ({"a": "a"}, "a"),  # a self-loop is not a second root
            ({"a": "b", "b": "a"}, "a"),
            ({"c": "a", "a": "b", "b": "a"}, "a"),  # a tail into a cycle
            ({"a": "c", "b": "c", "c": "b"}, "b"),  # the tail sorts first
            ({"a": "b", "b": "c", "c": "d", "d": "e", "e": "d"}, "d"),  # a longer tail
            ({"x": "r", "y": "x", "q": "p", "p": "q"}, "p"),  # beside a valid subtree
        ],
    )
    def test_cycle_names_its_smallest_label_in_every_edge_order(self, edges, named):
        for order in itertools.permutations(edges.items()):
            with pytest.raises(TaxonomyError, match=f"^cycle through '{named}'$"):
                Taxonomy("r", dict(order))

    def test_unknown_parent_is_named_before_a_cycle(self):
        with pytest.raises(TaxonomyError, match="parent 'zz' of 'c' is not a node"):
            Taxonomy("r", {"a": "b", "b": "a", "c": "zz"})


@st.composite
def trees_and_rows(draw):
    """A random tree 0 to 5 levels deep with mixed fan-outs, rows of one
    width over its node ids, and one row up to twice as wide, as a
    larger last cluster is."""
    tax = draw(trees(5))
    ids = st.integers(0, len(tax) - 1)
    width = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(ids, min_size=width, max_size=width), min_size=1, max_size=6))
    last = draw(st.lists(ids, min_size=width, max_size=2 * width - 1))
    return tax, [np.sort(np.array(rows, dtype=np.intp), axis=1), np.sort(np.array([last], dtype=np.intp))]


class TestSpannedMarginalities:
    """`Taxonomy.spanned_marginalities` is `spanned_subtree` in ascending
    node ids and the scalar `marginality` of each of its nodes, bit for bit."""

    @staticmethod
    def reference(tax, ids):
        return tax.node_ids(sorted(spanned_subtree(tax, [tax.labels[i] for i in ids])))

    @pytest.mark.parametrize("block_cells", [1 << 20, 1, 7])
    @settings(max_examples=150, deadline=None)
    @given(case=trees_and_rows())
    def test_equals_the_label_formulas(self, block_cells, case):
        tax, batches = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(taxonomy_module, "_BLOCK_CELLS", block_cells)
            for rows in batches:
                cands, scores = tax.spanned_marginalities(rows)
                assert len(cands) == len(scores) == len(rows)
                for row, row_cands, row_scores in zip(rows, cands, scores):
                    values = [tax.labels[i] for i in row]
                    assert row_cands.tolist() == self.reference(tax, row).tolist()
                    expected = [marginality(tax, values, tax.labels[c]) for c in row_cands.tolist()]
                    assert row_scores.tolist() == expected

    def test_equals_spanned_subtree_on_random_taxonomies(self):
        rng = np.random.default_rng(1812)
        for _ in range(60):
            tax = random_taxonomy(rng, size=int(rng.integers(1, 120)))
            # Zipf picks repeat a few ids many times.
            ids = rng.zipf(1.3, size=int(rng.integers(1, 40))) % len(tax)
            spanned, scores = kernel_row(tax, ids)
            assert spanned.tolist() == self.reference(tax, ids).tolist()
            again, repeated = kernel_row(tax, np.repeat(ids, 3))
            assert again.tolist() == spanned.tolist()
            assert repeated == pytest.approx(3 * scores)

    def test_labels_index_node_ids(self, wide_tax):
        assert wide_tax.labels == tuple(sorted(wide_tax.nodes))
        assert wide_tax.node_ids(wide_tax.labels).tolist() == list(range(len(wide_tax)))

    def test_root_alone(self, wide_tax):
        root = wide_tax.node_ids([wide_tax.root])
        for ids in (root, np.repeat(root, 5)):
            cands, scores = kernel_row(wide_tax, ids)
            assert cands.tolist() == root.tolist()
            assert scores.tolist() == [0.0]

    def test_deep_chain(self):
        chain = [f"c{i:03d}" for i in range(300)]
        tax = Taxonomy(chain[0], {chain[i]: chain[i - 1] for i in range(1, len(chain))})
        for depth in (0, 1, 150, 299):
            ids = tax.node_ids([chain[depth]] * 4)
            cands, _ = kernel_row(tax, ids)
            assert cands.tolist() == list(range(depth + 1))
            assert cands.tolist() == self.reference(tax, ids).tolist()

    def test_outputs_are_read_only(self, wide_tax):
        cands, scores = kernel_row(wide_tax, wide_tax.node_ids(["dev", "nurse"]))
        assert not cands.flags.writeable and not scores.flags.writeable

    def test_memory_is_bounded_by_blocks_not_the_batch(self):
        rng = np.random.default_rng(300)
        tax = random_taxonomy(rng, size=300)
        rows = np.sort(rng.integers(0, len(tax), size=(400, 40)), axis=1)
        kernel = lambda: tax.spanned_marginalities(rows)
        kernel()  # numpy's first-call allocations stay out of the trace
        (cands, scores), peak = traced_peak(kernel)
        cells = sum(len(c) for c in cands) * rows.shape[1] * len(tax._paths)
        # One pass would gather an 8-byte path entry per candidate x value x level cell.
        assert 8 * cells > 2 * 64 * 2**20
        assert peak < 64 * 2**20


@st.composite
def trees_and_multisets(draw):
    """A random tree 0 to 6 levels deep and a multiset over its node ids:
    a few distinct ids, each with a small or a Zipf-heavy count."""
    tax = draw(trees(6))
    ids = draw(st.lists(st.integers(0, len(tax) - 1), min_size=1, max_size=12))
    counts = draw(st.lists(st.integers(1, 3) | st.integers(1, 400), min_size=len(ids), max_size=len(ids)))
    return tax, np.repeat(np.array(ids, dtype=np.intp), counts)


def complete_tree(fanouts):
    """Root, then one level of children per fan-out; returns the tree and its leaves."""
    parent = {}
    level = ["root"]
    for fanout in fanouts:
        level = [f"{p}.{i}" for p in level for i in range(fanout)]
        parent.update({child: child.rsplit(".", 1)[0] for child in level})
    return Taxonomy("root", parent), level


def tie_cases():
    """Multisets whose most marginal label ties exactly or within rounding."""
    tax = Taxonomy("root", {"x": "root", "y": "root", "a": "x", "b": "x", "c": "y", "d": "y"})
    yield "symmetric pairs", tax, tax.node_ids(list("aabbccdd"))
    # Nine symmetric leaves, once each: the exact fold's rounding picks the last
    # group's first leaf, while every approximate score is the same.
    tax, leaves = complete_tree([1, 3, 3])
    yield "symmetric subtrees", tax, tax.node_ids(leaves)
    yield "one label", tax, tax.node_ids([leaves[4]] * 7)
    yield "root alone", tax, tax.node_ids(["root"] * 3)
    chain = [f"c{i:02d}" for i in range(40)]
    tax = Taxonomy(chain[0], {chain[i]: chain[i - 1] for i in range(1, len(chain))})
    yield "chain", tax, tax.node_ids([chain[i] for i in (0, 3, 3, 17, 39, 39, 39)])
    # Labels whose scores are equal sums of equal distances from different
    # (depth sum, shared) cells: the approximation rounds the exact argmax's
    # score below another's, so only a tolerance keeps it in the exact re-score.
    parent = {"n1": "n0", "n2": "n0", "n3": "n2", "n4": "n3", "n5": "n1", "n6": "n3", "n7": "n4",
              "n8": "n5", "n9": "n1", "n10": "n5"}
    tax = Taxonomy("n0", parent)
    yield "equal sums of other cells", tax, tax.node_ids(
        ["n1", "n1", "n10", "n10", "n10", "n2", "n2", "n3", "n3", "n4", "n4", "n7", "n7", "n8", "n8", "n8"]
    )
    rng = np.random.default_rng(495)
    for size in (5, 60, 400):
        tax = random_taxonomy(rng, size)
        yield f"zipf over {size} nodes", tax, rng.zipf(1.2, size=3000) % size


def exact_argmax(tax, ids):
    """The first distinct id of `ids` with the largest exact marginality."""
    distinct = np.bincount(ids).nonzero()[0]
    return int(distinct[np.argmax(tax.marginalities(distinct, ids))])


class TestMostMarginal:
    """`Taxonomy.most_marginal` is the first argmax of the exact
    marginalities, although it scores only the labels near the maximum."""

    @settings(max_examples=300, deadline=None)
    @given(case=trees_and_multisets())
    def test_equals_the_argmax_of_the_exact_scores(self, case):
        tax, ids = case
        assert tax.most_marginal(ids) == exact_argmax(tax, ids)

    @pytest.mark.parametrize("tax, ids", [pytest.param(tax, ids, id=name) for name, tax, ids in tie_cases()])
    def test_ties_and_near_ties(self, tax, ids):
        assert tax.most_marginal(ids) == exact_argmax(tax, ids)
        assert tax.most_marginal(np.sort(ids)[::-1]) == exact_argmax(tax, ids)


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
