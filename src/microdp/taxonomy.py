"""Rooted-tree domains for categorical attributes.

A taxonomy provides the semantic machinery behind categorical releases:
ancestor sets, a bounded semantic distance between labels, marginality
scores of candidate representatives against a value multiset, and the
least-marginal node (the centroid) of a sample.

Besides the label form, a `Taxonomy` holds an array form built once at
construction: node ids in sorted-label order (`labels[i]` is node i's
label), a depth array, an ancestor-path table with one row per depth
level and one column per node, and the semantic distance of every
possible (depth sum, shared ancestor count) pair of two nodes. The
categorical kernels work in node ids: `Taxonomy.spanned_ids` reads a
sample's spanned subtree off the path table, and one lookup,
`Taxonomy._pair_distances`, gives the distances of broadcast node-id
arrays. Every marginality computation runs through one kernel on it,
`Taxonomy.marginalities`, bit-identical to the scalar `marginality`;
`Taxonomy.distances` applies it pair by pair, for the metrics.
`spanned_subtree`, `semantic_distance` and `marginality` stay as plain
label formulas, so the oracle and the tests check the kernels
independently. The arrays are sized by the taxonomy alone
(O(nodes x depth + depth^2)), and no query leaves state behind.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

# Candidate x distinct-value x depth-level cells the marginality kernel
# compares per block of candidates. Bounds its working memory to a few MB.
_BLOCK_CELLS = 1 << 20


class TaxonomyError(ValueError):
    """Structurally invalid taxonomy, or a label that is not a node."""


class Taxonomy:
    """Immutable rooted tree over string labels.

    Every node except the root has exactly one parent. Queries are pure
    and keep no state, so concurrent readers always observe identical
    results.
    """

    __slots__ = ("root", "labels", "_parent", "_ancestors", "_ids", "_depth", "_paths", "_dist")

    def __init__(self, root: str, parent: Mapping[str, str]) -> None:
        if root in parent:
            raise TaxonomyError(f"root {root!r} must not have a parent")
        self.root = root
        self._parent = dict(parent)
        known = set(self._parent) | {root}
        for child, par in self._parent.items():
            if par not in known:
                raise TaxonomyError(f"parent {par!r} of {child!r} is not a node")
        self._ancestors: dict[str, frozenset[str]] = {root: frozenset({root})}
        for node in self._parent:
            self._resolve(node)

        self.labels = labels = tuple(sorted(self._ancestors))
        self._ids = {label: i for i, label in enumerate(labels)}
        n = len(labels)
        self._depth = np.array([len(self._ancestors[label]) - 1 for label in labels], dtype=np.intp)
        parent_ids = np.array([self._ids[self._parent.get(label, root)] for label in labels], dtype=np.intp)
        height = int(self._depth.max())
        # Level-major ancestor-path table: _paths[j, v] is v's ancestor at
        # depth j, and v itself at every level deeper than v. Two distinct
        # nodes then agree exactly on their shared ancestors.
        self._paths = np.tile(np.arange(n), (height + 1, 1))
        ancestor = np.arange(n)
        for step in range(height + 1):
            live = self._depth >= step
            self._paths[self._depth[live] - step, live] = ancestor[live]
            ancestor = parent_ids[ancestor]
        # Distance by (depth sum, shared ancestor count) of two labels, whose
        # ancestor union then has depth_sum + 2 - shared nodes. Same
        # expression as `semantic_distance`, so the entries are bit-identical.
        # A node agrees with itself on all height + 1 levels; that cell lies
        # outside the filled pairs and stays 0, its distance to itself.
        self._dist = np.zeros((2 * height + 1, height + 2))
        for depth_sum in range(2 * height + 1):
            for shared in range(1, depth_sum // 2 + 2):
                total = depth_sum + 2 - shared
                self._dist[depth_sum, shared] = math.log2(1.0 + (total - shared) / total)

    def _resolve(self, node: str) -> None:
        chain: list[str] = []
        on_path: set[str] = set()
        cur = node
        while cur not in self._ancestors:
            if cur in on_path:
                raise TaxonomyError(f"cycle through {cur!r}")
            on_path.add(cur)
            chain.append(cur)
            cur = self._parent[cur]
        anc = self._ancestors[cur]
        for label in reversed(chain):
            anc = anc | {label}
            self._ancestors[label] = anc

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self._ancestors)

    def __contains__(self, label: str) -> bool:
        return label in self._ancestors

    def __len__(self) -> int:
        return len(self._ancestors)

    def ancestors(self, label: str) -> frozenset[str]:
        """Generalization path of `label` up to the root, inclusive of both."""
        try:
            return self._ancestors[label]
        except KeyError:
            raise TaxonomyError(f"label {label!r} is not in the taxonomy") from None

    def semantic_distance(self, a: str, b: str) -> float:
        """Distance between two labels in [0, 1).

        Defined as log2(1 + d/t) where d counts ancestors of exactly one
        label and t counts ancestors of either. Zero iff the labels are
        equal; symmetric; satisfies the triangle inequality.
        """
        if a == b:
            self.ancestors(a)
            return 0.0
        pa = self.ancestors(a)
        pb = self.ancestors(b)
        total = len(pa | pb)
        shared = len(pa & pb)
        return math.log2(1.0 + (total - shared) / total)

    def node_ids(self, labels: Sequence[str]) -> np.ndarray:
        """Node ids of `labels`; ids follow sorted-label order."""
        try:
            return np.fromiter(map(self._ids.__getitem__, labels), dtype=np.intp, count=len(labels))
        except KeyError as exc:
            raise TaxonomyError(f"label {exc.args[0]!r} is not in the taxonomy") from None

    def spanned_ids(self, value_ids: np.ndarray) -> np.ndarray:
        """`spanned_subtree` in ascending node ids; memory is sized by the taxonomy, not the sample."""
        seen = np.bincount(value_ids, minlength=len(self._depth))
        seen[self._paths[:, seen.nonzero()[0]]] = 1
        return seen.nonzero()[0]

    def _pair_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """`semantic_distance` of the node ids `a` and `b`, broadcast against each other.

        The (depth sum, shared ancestor count) lookup in the table filled
        with the scalar formula, so each entry is bit-identical to it.
        """
        # Shared ancestors are the levels where two paths agree. Their count
        # fits uint8 below 255 levels, which keeps the reduction over levels cheap.
        agree = self._paths.take(a, axis=1) == self._paths.take(b, axis=1)
        shared = np.add.reduce(agree, axis=0, dtype=np.uint8 if len(self._paths) < 255 else np.intp)
        return self._dist[self._depth[a] + self._depth[b], shared]

    def centroid_id(self, value_ids: np.ndarray) -> int:
        """`marginality_centroid` of the non-empty multiset `value_ids`, as a node id (smallest on ties)."""
        cands = self.spanned_ids(value_ids)
        return int(cands[np.argmin(self.marginalities(cands, value_ids))])

    def marginalities(self, candidate_ids: np.ndarray, value_ids: np.ndarray) -> np.ndarray:
        """Marginality of every candidate against the non-empty multiset `value_ids`.

        Bit-identical to `marginality`: each distance comes from the table
        filled with the scalar formula, and count x distance terms are
        summed left to right in sorted-label order, as the scalar loop
        does. Candidates are scored in blocks of at most `_BLOCK_CELLS`
        cells, so working memory stays bounded for large taxonomies.
        """
        counts = np.bincount(value_ids, minlength=len(self._depth))
        values = counts.nonzero()[0]
        weights = counts[values]
        step = max(1, _BLOCK_CELLS // (len(values) * len(self._paths)))
        out = np.empty(len(candidate_ids))
        for start in range(0, len(candidate_ids), step):
            block = candidate_ids[start:start + step]
            terms = weights * self._pair_distances(block[:, None], values[None, :])
            out[start:start + len(block)] = np.add.accumulate(terms, axis=1)[:, -1]
        return out

    def distances(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """`semantic_distance` of every pair `(a_ids[i], b_ids[i])`.

        Bit-identical to the scalar formula: the same table lookup as
        `marginalities`, in blocks of at most `_BLOCK_CELLS` pair x level
        cells.
        """
        step = max(1, _BLOCK_CELLS // len(self._paths))
        out = np.empty(len(a_ids))
        for start in range(0, len(a_ids), step):
            block = slice(start, start + step)
            out[block] = self._pair_distances(a_ids[block], b_ids[block])
        return out


def spanned_subtree(taxonomy: Taxonomy, labels: Iterable[str]) -> frozenset[str]:
    """Nodes of the minimal subtree containing `labels` and their ancestors."""
    # Input order, not set order: the first unknown label is the one named.
    distinct = dict.fromkeys(labels)
    if not distinct:
        raise TaxonomyError("empty label set")
    out: frozenset[str] = frozenset()
    for label in distinct:
        out |= taxonomy.ancestors(label)
    return out


def marginality(taxonomy: Taxonomy, value_set: Iterable[str], candidate: str) -> float:
    """Sum of semantic distances from `candidate` to each value occurrence.

    Multiset semantics: repeated values contribute once per occurrence.
    Occurrences equal to the candidate contribute zero distance.
    """
    counts = Counter(value_set)
    if not counts:
        raise TaxonomyError("empty value set")
    taxonomy.ancestors(candidate)
    total = 0.0
    for label in sorted(counts):
        total += counts[label] * taxonomy.semantic_distance(candidate, label)
    return total


def marginality_table(taxonomy: Taxonomy, value_set: Iterable[str]) -> dict[str, float]:
    """`marginality` of every distinct value of a multiset, in sorted-label order.

    An unknown label raises `TaxonomyError` naming the first in that order.
    """
    values = tuple(value_set)
    if not values:
        raise TaxonomyError("empty value set")
    labels = sorted(set(values))
    scores = taxonomy.marginalities(taxonomy.node_ids(labels), taxonomy.node_ids(values))
    return dict(zip(labels, scores.tolist()))


def marginality_centroid(taxonomy: Taxonomy, sample: Iterable[str]) -> str:
    """Least marginal node of the subtree spanned by `sample`.

    Ties are broken toward the lexicographically smallest label so the
    result is independent of sample order. An unknown label raises
    `TaxonomyError` naming the first one in input order.
    """
    values = list(sample)
    if not values:
        raise TaxonomyError("empty sample")
    return taxonomy.labels[taxonomy.centroid_id(taxonomy.node_ids(values))]


def load_taxonomy(source: str | Path | IO[str]) -> Taxonomy:
    """Parse a taxonomy from an edge list.

    The first non-blank line names the root; every following line holds
    one `parent<TAB>child` edge. The file must describe a single tree.
    A path is read as UTF-8; one leading byte order mark is dropped.
    """
    if isinstance(source, (str, Path)):
        text = Path(source).read_text(encoding="utf-8-sig")
    else:
        text = source.read().removeprefix("\ufeff")
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise TaxonomyError("empty taxonomy file")
    root = lines[0]
    if "\t" in root:
        raise TaxonomyError("first line must name the root, not an edge")
    parent: dict[str, str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise TaxonomyError(f"line {lineno}: expected 'parent<TAB>child', got {line!r}")
        par, child = parts
        if child == root or child in parent:
            raise TaxonomyError(f"line {lineno}: {child!r} already has a parent")
        parent[child] = par
    return Taxonomy(root, parent)
