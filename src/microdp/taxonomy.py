"""Rooted-tree domains for categorical attributes.

A taxonomy provides the semantic machinery behind categorical releases:
generalization paths, a bounded semantic distance between labels,
marginality scores of candidate representatives against a value
multiset, and the least-marginal node (the centroid) of a sample.

A `Taxonomy` keeps its parent map and an array form built from parent
ids alone: node ids in sorted-label order (`labels[i]` is node i's
label), a depth array, an ancestor-path table with one row per depth
level and one column per node, and the semantic distance of every
possible (depth sum, shared ancestor count) pair of two nodes. The
categorical kernels work in node ids, and one lookup,
`Taxonomy._pair_distances`, gives the distances of broadcast node-id
arrays. `Taxonomy.spanned_ids` reads one multiset's spanned subtree off
the path table and `Taxonomy.marginalities` scores given candidates
against one multiset; `Taxonomy.spanned_marginalities` does both for a
batch of multisets, one sorted row each, so a plan scores all of its
distinct cluster multisets in one call. The scores of both are
bit-identical to the scalar `marginality`; `Taxonomy.distances` applies the lookup pair by pair,
for the metrics, and `Taxonomy.distance_rows` row by row, every node
against a block of ids (a one-value multiset's marginalities).
`Taxonomy.most_marginal` finds the most marginal value of a multiset,
the categorical order key's reference, without its distinct x distinct
score table: agreement counts per path level approximate every score
in O(distinct x depth^2), and only the values within a proven rounding
bound of the largest are re-scored exactly, so the result is the exact
argmax.
`Taxonomy.ancestors`, `spanned_subtree`, `semantic_distance` and
`marginality` stay as plain label formulas that walk the parent map, so
the oracle and the tests check the kernels independently. The arrays
are sized by the taxonomy alone (O(nodes x depth + depth^2)), and no
query leaves state behind.
"""

from __future__ import annotations

import math
from collections import Counter
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

# Candidate x distinct-value x depth-level cells the marginality kernels
# compare per block of candidates. Bounds their working memory to a few MB.
_BLOCK_CELLS = 1 << 20


class TaxonomyError(ValueError):
    """Structurally invalid taxonomy, or a label that is not a node."""


class Taxonomy:
    """Immutable rooted tree over string labels.

    Every node except the root has exactly one parent. Queries are pure
    and keep no state, so concurrent readers always observe identical
    results.
    """

    __slots__ = ("root", "labels", "_parent", "_ids", "_depth", "_paths", "_dist")

    def __init__(self, root: str, parent: Mapping[str, str]) -> None:
        if root in parent:
            raise TaxonomyError(f"root {root!r} must not have a parent")
        self.root = root
        self._parent = dict(parent)
        self.labels = labels = tuple(sorted({root, *self._parent}))
        self._ids = ids = {label: i for i, label in enumerate(labels)}
        for child, par in self._parent.items():
            if par not in ids:
                raise TaxonomyError(f"parent {par!r} of {child!r} is not a node")
        n = len(labels)
        top = ids[root]
        parent_ids = np.arange(n)  # the root is its own parent
        parent_ids[self.node_ids(self._parent.keys())] = self.node_ids(self._parent.values())
        # Walk the nodes below the root up one level per pass; `up` is the next
        # level. In a tree some walk reaches the root on every pass, so after a
        # pass where none does, only walks on or into a cycle are left, and as
        # many passes again as walks left put `up` on the nodes of every cycle.
        self._depth = depth = np.zeros(n, dtype=np.intp)
        below = np.flatnonzero(np.arange(n) != top)
        up = parent_ids[below]
        while len(below):
            depth[below] += 1
            keep = up != top
            if keep.all():
                for _ in range(len(below)):
                    up = parent_ids[up]
                raise TaxonomyError(f"cycle through {labels[up.min()]!r}")
            below, up = below[keep], parent_ids[up[keep]]
        height = int(depth.max())
        # Level-major ancestor-path table: _paths[j, v] is v's ancestor at
        # depth j, and v itself at every level deeper than v. Two distinct
        # nodes then agree exactly on their shared ancestors.
        self._paths = np.tile(np.arange(n), (height + 1, 1))
        ancestor = np.arange(n)
        for step in range(height + 1):
            live = depth >= step
            self._paths[depth[live] - step, live] = ancestor[live]
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

    @property
    def nodes(self) -> frozenset[str]:
        return frozenset(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._ids

    def __len__(self) -> int:
        return len(self.labels)

    def ancestors(self, label: str) -> frozenset[str]:
        """Generalization path of `label` up to the root, inclusive of both, walked in the parent map."""
        if label not in self._ids:
            raise TaxonomyError(f"label {label!r} is not in the taxonomy")
        path = [label]
        while path[-1] != self.root:
            path.append(self._parent[path[-1]])
        return frozenset(path)

    def semantic_distance(self, a: str, b: str) -> float:
        """Distance between two labels in [0, 1).

        Defined as log2(1 + d/t) where d counts ancestors of exactly one
        label and t counts ancestors of either. Zero iff the labels are
        equal; symmetric; satisfies the triangle inequality.
        """
        pa, pb = self.ancestors(a), self.ancestors(b)
        total = len(pa | pb)
        shared = len(pa & pb)
        return math.log2(1.0 + (total - shared) / total)

    def node_ids(self, labels: Sequence[str]) -> np.ndarray:
        """Node ids of `labels`; ids follow sorted-label order."""
        try:
            return np.fromiter(map(self._ids.__getitem__, labels), dtype=np.intp, count=len(labels))
        except KeyError as exc:
            raise TaxonomyError(f"label {exc.args[0]!r} is not in the taxonomy") from None

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

    def spanned_ids(self, value_ids: np.ndarray) -> np.ndarray:
        """`spanned_subtree` of the node ids `value_ids`, ascending; memory is sized by the taxonomy."""
        seen = np.bincount(value_ids, minlength=len(self.labels))
        seen[self._paths[:, seen.nonzero()[0]]] = 1
        return seen.nonzero()[0]

    def centroid_id(self, value_ids: np.ndarray) -> int:
        """`marginality_centroid` of the non-empty multiset `value_ids`, as a node id (smallest on ties)."""
        cands = self.spanned_ids(value_ids)
        return int(cands[np.argmin(self.marginalities(cands, value_ids))])

    def spanned_marginalities(self, rows: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The spanned subtree of every row of sorted node ids, and each candidate's marginality.

        Row i of the 2-D `rows` is one non-empty multiset, ascending. Its
        entry in the first list is `spanned_subtree` in ascending node ids,
        and in the second their `marginalities` against the row, bit for
        bit: each row is cut to its distinct ids and their counts, padded
        with zero weights to the widest row, and count x distance terms are
        summed left to right. Subtrees and scores are built in blocks of at
        most `_BLOCK_CELLS` cells, so working memory stays bounded. The
        returned arrays are read-only views of two flat arrays.
        """
        n_rows, width = rows.shape
        first = np.ones(rows.shape, dtype=bool)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=first[:, 1:])
        slots = np.cumsum(first, axis=1)
        starts = np.flatnonzero(first)  # row-major, and every row opens with a run
        at = (starts // width, slots.ravel()[starts] - 1)
        # Padding repeats a row's first id, so it spans nothing new.
        values = np.repeat(rows[:, :1], slots[:, -1].max(), axis=1)
        values[at] = rows.ravel()[starts]
        weights = np.zeros(values.shape, dtype=np.intp)
        weights[at] = np.diff(starts, append=rows.size)
        n_nodes = len(self._depth)
        cells = values.shape[1] * len(self._paths)
        step = max(1, _BLOCK_CELLS // cells)
        # Ancestor paths offset by row number * n_nodes: one sort dedups every
        # row's own. Not np.unique, whose first call imports numpy.ma (~10 ms).
        offsets = np.arange(n_rows)[:, None] * n_nodes
        spanned = []
        for start in range(0, n_rows, step):
            keys = np.sort(self._paths[:, values[start:start + step]] + offsets[start:start + step], axis=None)
            spanned.append(keys[np.append(True, keys[1:] != keys[:-1])])
        owner, cands = np.divmod(np.concatenate(spanned), n_nodes)
        scores = np.empty(len(cands))
        for start in range(0, len(cands), step):
            block = slice(start, start + step)
            rows_of = owner[block]
            terms = weights[rows_of] * self._pair_distances(cands[block, None], values[rows_of])
            scores[block] = np.add.accumulate(terms, axis=1)[:, -1]
        ends = np.flatnonzero(owner[1:] != owner[:-1]) + 1
        cands.flags.writeable = scores.flags.writeable = False
        return np.split(cands, ends), np.split(scores, ends)

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

    def distance_rows(self, ids: np.ndarray) -> Iterator[np.ndarray]:
        """`semantic_distance` from each of `ids` to every node: one row per id, in blocks of rows.

        A row is also the node ids' `marginalities` against that one id,
        bit for bit (a fold of one term). A block holds at most
        `_BLOCK_CELLS` row x node x level cells, so working memory stays
        sized by the taxonomy however many ids there are.
        """
        everything = np.arange(len(self._depth))[None, :]
        step = max(1, _BLOCK_CELLS // (everything.size * len(self._paths)))
        for start in range(0, len(ids), step):
            yield self._pair_distances(ids[start:start + step, None], everything)

    def most_marginal(self, value_ids: np.ndarray) -> int:
        """The most marginal distinct id of the non-empty multiset `value_ids` (smallest on ties).

        The id `np.argmax` picks from the distinct ids' `marginalities`
        against `value_ids`, found without their distinct x distinct table.
        Two distinct nodes agree on a prefix of path levels, so the count
        of values at depth t sharing exactly q levels with a candidate is
        its agreement count at level q - 1 minus that at level q, and the
        agreement counts at one level are one `np.bincount` keyed by the
        values' (path entry, depth). Summing count x `_dist[depth + t, q]`
        over t and q approximates every score in O(distinct x levels^2).
        Each term is rounded at most 2 * levels - 1 times there and at
        most d times in the exact left fold, d the distinct count, and the
        exact score is below n = len(value_ids) (every distance is below
        1), so approximation and fold differ by at most
        tol = 2 * (d + 2 * levels) * 2^-53 * n (the factor 2 holds while
        (d + 2 * levels) * 2^-53 <= 1/2). Only the candidates within
        2 * tol of the largest approximation can reach the exact maximum;
        they alone are scored exactly, and the first argmax among them
        (ascending ids) is returned.
        """
        counts = np.bincount(value_ids)
        values = counts.nonzero()[0]
        weights = counts[values].astype(float)
        depth = self._depth[values]
        levels = len(self._paths)
        # agreed[j, t]: weight of the values at depth t that agree with candidate j
        # on level shared - 1; on the root level, all of them.
        agreed = np.bincount(depth, weights, minlength=levels)[None, :]
        sums = depth[:, None] + np.arange(levels)
        approx = np.zeros(len(values))
        # Sharing all levels is the candidate itself, at distance 0.
        for shared in range(1, levels):
            path = self._paths[shared, values]
            agree = np.bincount(path * levels + depth, weights, minlength=len(self._depth) * levels)
            agree = agree.reshape(-1, levels)[path]
            approx += ((agreed - agree) * self._dist[sums, shared]).sum(axis=1)
            agreed = agree
        tol = 2 * (len(values) + 2 * levels) * 2.0 ** -53 * len(value_ids)
        near = values[approx >= approx.max() - 2 * tol]
        return int(near[np.argmax(self.marginalities(near, value_ids))])

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
    return frozenset().union(*map(taxonomy.ancestors, distinct))


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
