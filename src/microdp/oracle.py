"""Brute-force verifiers for the privacy-relevant claims.

These functions re-derive guarantees the mechanisms rely on, without
reusing the mechanism code paths: the centroid-shift bound is checked by
exhaustive replacement search, exponential-mechanism probabilities are
computed in closed form so sampled frequencies and DP ratios can be
compared against exact values, and `dp_property_check` estimates the
epsilon-DP inequality from sampled outputs of any mechanism on a
neighbor pair. They back the test suite and the hidden `verify` CLI
subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .data import Dataset, NeighborPair
from .microagg import individual_ranking
from .taxonomy import Taxonomy, marginality, spanned_subtree


@dataclass(frozen=True)
class SensitivityProbe:
    """One brute-force instance for the centroid-shift bound.

    `delta_cap` caps how far a single value may be moved; replacements
    sweep an evenly spaced grid (endpoints included) of `grid_points`
    values around each original value, clipped to [lower, upper] when
    bounds are given.
    """

    column: tuple[float, ...]
    k: int
    delta_cap: float
    grid_points: int = 5
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_cap) and self.delta_cap > 0):
            raise ValueError(f"delta_cap must be positive and finite, got {self.delta_cap}")
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be at least 2, got {self.grid_points}")


@dataclass(frozen=True)
class Lemma1Report:
    max_shift: float
    bound: float
    passed: bool
    worst_index: int
    worst_replacement: float


def lemma1_check(probe: SensitivityProbe) -> Lemma1Report:
    """Exhaustively verify the delta/k centroid-shift bound.

    For every record and every grid replacement, recluster the column and
    sum the absolute centroid differences of rank-matched clusters. The
    probe passes when the worst total shift stays within
    delta_cap / k + 1e-9.
    """
    values = np.asarray(probe.column, dtype=float)
    base = individual_ranking(values, probe.k)
    base_centroids = np.asarray(base.centroids)
    bound = probe.delta_cap / probe.k
    worst = (0.0, -1, 0.0)
    for i in range(values.shape[0]):
        grid = np.linspace(values[i] - probe.delta_cap, values[i] + probe.delta_cap, probe.grid_points)
        if probe.lower is not None or probe.upper is not None:
            grid = np.clip(grid, probe.lower, probe.upper)
        for replacement in grid:
            mutated = values.copy()
            mutated[i] = replacement
            plan = individual_ranking(mutated, probe.k)
            shift = float(np.abs(np.asarray(plan.centroids) - base_centroids).sum())
            if shift > worst[0]:
                worst = (shift, i, float(replacement))
    return Lemma1Report(
        max_shift=worst[0],
        bound=bound,
        passed=worst[0] <= bound + 1e-9,
        worst_index=worst[1],
        worst_replacement=worst[2],
    )


def exact_expmech_distribution(
    taxonomy: Taxonomy,
    cluster_values: Sequence[str],
    epsilon: float,
    sensitivity_q: float = 1.0,
    candidates: Iterable[str] | None = None,
) -> dict[str, float]:
    """Closed-form selection probabilities of the centroid mechanism.

    Mirrors `exponential_mechanism_centroid` arithmetic but returns the
    whole normalized distribution. epsilon = 0 is allowed here and yields
    the uniform distribution over candidates.
    """
    values = list(cluster_values)
    if not values:
        raise ValueError("empty cluster")
    if epsilon < 0 or not math.isfinite(epsilon):
        raise ValueError(f"epsilon must be non-negative and finite, got {epsilon}")
    if not (math.isfinite(sensitivity_q) and sensitivity_q > 0):
        raise ValueError(f"sensitivity_q must be positive and finite, got {sensitivity_q}")
    cands = sorted(candidates) if candidates is not None else sorted(spanned_subtree(taxonomy, values))
    logits = np.array([
        epsilon * (-marginality(taxonomy, values, c)) / (2.0 * sensitivity_q)
        for c in cands
    ])
    logits -= logits.max()
    weights = np.exp(logits)
    probabilities = weights / weights.sum()
    return {c: float(p) for c, p in zip(cands, probabilities)}


def exact_dp_ratio(
    taxonomy: Taxonomy,
    cluster_a: Sequence[str],
    cluster_b: Sequence[str],
    epsilon: float,
    sensitivity_q: float = 1.0,
    shared: bool = True,
    candidates: Iterable[str] | None = None,
) -> float:
    """Worst-case |log probability ratio| between two neighbor clusters.

    With `shared=True` the mechanism publishes one draw for the whole
    cluster, so the outcome space is the candidate set itself. With
    `shared=False` every record gets an independent draw; the worst tuple
    repeats the worst single label, which multiplies the single-draw log
    ratio by the cluster size. Any outcome possible on exactly one side
    makes the ratio infinite (a DP violation).
    """
    if len(cluster_a) != len(cluster_b):
        raise ValueError("neighbor clusters must have the same size")
    dist_a = exact_expmech_distribution(taxonomy, cluster_a, epsilon, sensitivity_q, candidates)
    dist_b = exact_expmech_distribution(taxonomy, cluster_b, epsilon, sensitivity_q, candidates)
    worst = 0.0
    for outcome in sorted(set(dist_a) | set(dist_b)):
        pa = dist_a.get(outcome, 0.0)
        pb = dist_b.get(outcome, 0.0)
        if pa == 0.0 and pb == 0.0:
            continue
        if pa == 0.0 or pb == 0.0:
            return math.inf
        worst = max(worst, abs(math.log(pa / pb)))
    return worst if shared else len(cluster_a) * worst


@dataclass(frozen=True)
class BucketStat:
    """Empirical counts of one outcome bucket on both neighbor sides."""

    outcome: Hashable
    count_base: int
    count_modified: int
    log_ratio: float
    slack: float
    flagged: bool


@dataclass(frozen=True)
class DpCheckReport:
    epsilon: float
    trials: int
    max_log_ratio: float
    ok: bool
    buckets: tuple[BucketStat, ...]


def dp_property_check(
    mechanism: Callable[[Dataset, np.random.Generator], Hashable],
    neighbor: NeighborPair,
    epsilon: float,
    trials: int,
    seed: int = 0,
) -> DpCheckReport:
    """Frequency-based check of the epsilon-DP inequality.

    Runs `mechanism` `trials` times on both neighbor datasets, estimates
    the probability of every outcome bucket and compares the absolute
    log-ratios against epsilon plus a three-sigma sampling slack. Buckets
    observed on only one side are flagged when the missing side would
    have been expected at least 10 times under the epsilon bound. Only
    sound for mechanisms with a modest discrete outcome space; bucket
    continuous outputs coarsely before counting.
    """
    if trials < 1000:
        raise ValueError(f"at least 1000 trials are needed for a meaningful check, got {trials}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    counts_base: dict[Hashable, int] = {}
    counts_mod: dict[Hashable, int] = {}
    rng_base = np.random.default_rng([int(seed), 0])
    rng_mod = np.random.default_rng([int(seed), 1])
    for _ in range(trials):
        out = mechanism(neighbor.base, rng_base)
        counts_base[out] = counts_base.get(out, 0) + 1
    for _ in range(trials):
        out = mechanism(neighbor.modified, rng_mod)
        counts_mod[out] = counts_mod.get(out, 0) + 1
    buckets = []
    for outcome in sorted(set(counts_base) | set(counts_mod), key=repr):
        c1 = counts_base.get(outcome, 0)
        c2 = counts_mod.get(outcome, 0)
        if c1 > 0 and c2 > 0:
            ratio = abs(math.log(c1 / c2))
            slack = 3.0 * math.sqrt(1.0 / c1 + 1.0 / c2)
            flagged = ratio > epsilon + slack
        else:
            ratio = math.inf
            slack = 0.0
            flagged = max(c1, c2) * math.exp(-epsilon) >= 10.0
        buckets.append(BucketStat(outcome, c1, c2, ratio, slack, flagged))
    finite = [b.log_ratio for b in buckets if b.log_ratio != math.inf]
    flagged_any = any(b.flagged for b in buckets)
    if any(b.flagged and b.log_ratio == math.inf for b in buckets):
        max_log_ratio = math.inf
    else:
        max_log_ratio = max(finite) if finite else 0.0
    return DpCheckReport(
        epsilon=epsilon,
        trials=trials,
        max_log_ratio=max_log_ratio,
        ok=not flagged_any,
        buckets=tuple(buckets),
    )
