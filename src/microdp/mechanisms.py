"""Release mechanisms: calibrated noise on top of microaggregation.

The main release microaggregates each attribute with individual ranking
and perturbs each cluster centroid once, so every record of a cluster
receives the same draw. One changed record moves the centroid sequence
by at most delta/k in L1, which is why the per-attribute Laplace scale
is delta / (k * epsilon_attr); fresh noise per record would multiply the
effective sensitivity by k and break the guarantee. Under an m-attribute
budget each attribute runs with epsilon_total / m.

Every method is the same two steps. A plan maps each record of an
attribute to a cluster and gives one centroid per cluster; the perturb
step then draws once per cluster. The methods differ only in the plan:
`plain_laplace_release` makes every record its own cluster (scale
m * delta / epsilon_total), `mv_dp_release` reuses one record-level
partition for all attributes (scale (n/k) * delta / (k * epsilon_total)),
and the `*_only` variants release the planned centroids without noise.
The empirical privacy check lives in `oracle`.

Randomness: every attribute draws from its own substream seeded by
(seed, attribute index), so results do not depend on attribute evaluation
order and identical inputs reproduce byte-identical releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import microagg
from .data import NUMERIC, Dataset
# `marginality` stays a module global here for the benchmark tracer's call counter.
from .taxonomy import Taxonomy, marginality, marginality_scores, spanned_subtree  # noqa: F401

METHODS = ("ir-dp", "plain-laplace", "mv-dp", "ir-only", "mv-only")


@dataclass(frozen=True)
class PrivacyBudget:
    """Total epsilon and the attribute count it is split across."""

    epsilon_total: float
    m: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon_total) and self.epsilon_total > 0):
            raise ValueError(f"epsilon_total must be positive and finite, got {self.epsilon_total}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")

    @property
    def epsilon_per_attribute(self) -> float:
        return self.epsilon_total / self.m


@dataclass(frozen=True)
class MechanismConfig:
    """Everything needed to reproduce one release."""

    method: str
    k: int
    budget: PrivacyBudget
    seed: int
    clamp: bool = True

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def effective_k(self) -> int:
        """plain-laplace has no clustering; k is treated as 1 there."""
        return 1 if self.method == "plain-laplace" else self.k


def attribute_substream(seed: int, attribute_index: int) -> np.random.Generator:
    """Independent generator for one attribute of one release."""
    return np.random.default_rng([int(seed), int(attribute_index)])


def laplace_from_uniform(u: np.ndarray | float, scale: float) -> np.ndarray | float:
    """Inverse-CDF transform of uniform draws in [0, 1) to Laplace(scale).

    A single uniform value maps deterministically to a single Laplace
    value (u = 0.5 maps to exactly 0), which keeps noise streams
    reproducible across platforms for a fixed generator sequence.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    u = np.asarray(u, dtype=float)
    u = np.where(u == 0.0, 2.0 ** -53, u)
    shifted = u - 0.5
    out = -scale * np.sign(shifted) * np.log1p(-2.0 * np.abs(shifted))
    return out if out.ndim else float(out)


def laplace_sample(scale: float, rng: np.random.Generator) -> float:
    """One Laplace(scale) draw consuming exactly one uniform."""
    return float(laplace_from_uniform(rng.random(), scale))


def noise_scale(
    method: str,
    *,
    delta: float,
    budget: PrivacyBudget,
    k: int = 1,
    n: int | None = None,
) -> float:
    """Laplace scale used by `method` for an attribute of width `delta`.

    ir-dp divides the per-attribute budget by k (centroid sensitivity
    delta/k); plain-laplace carries full record sensitivity; mv-dp pays
    for all n/k centroids of the shared partition at once. The noiseless
    baselines return 0.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if method == "ir-dp":
        return delta / (k * budget.epsilon_per_attribute)
    if method == "plain-laplace":
        return delta / budget.epsilon_per_attribute
    if method == "mv-dp":
        if n is None:
            raise ValueError("mv-dp scale needs the record count n")
        return (n / k) * delta / (k * budget.epsilon_total)
    if method in ("ir-only", "mv-only"):
        return 0.0
    raise ValueError(f"unknown method {method!r}")


def exponential_mechanism_centroid(
    taxonomy: Taxonomy,
    cluster_values: Sequence[str],
    epsilon: float,
    sensitivity_q: float,
    rng: np.random.Generator,
    candidates: Iterable[str] | None = None,
) -> str:
    """Draw a centroid label with probability falling off in marginality.

    Candidates default to the subtree spanned by the cluster; a fixed
    candidate set can be supplied instead (the per-record baseline uses
    the full taxonomy). Quality of a candidate is the negated marginality
    against the cluster multiset, and a label is drawn with probability
    proportional to exp(epsilon * quality / (2 * sensitivity_q)).
    """
    values = list(cluster_values)
    if not values:
        raise ValueError("empty cluster")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if sensitivity_q <= 0:
        raise ValueError(f"sensitivity_q must be positive, got {sensitivity_q}")
    cands = sorted(candidates) if candidates is not None else sorted(spanned_subtree(taxonomy, values))
    logits = -epsilon * marginality_scores(taxonomy, values, cands) / (2.0 * sensitivity_q)
    logits -= np.maximum.reduce(logits)
    weights = np.exp(logits)
    cdf = np.add.accumulate(weights / np.add.reduce(weights))
    idx = int(cdf.searchsorted(rng.random(), side="right"))
    return cands[min(idx, len(cands) - 1)]


def _perturb(
    data: Dataset,
    plans: Iterable[tuple[np.ndarray, Sequence]],
    method: str,
    budget: PrivacyBudget | None = None,
    seed: int = 0,
    clamp: bool = True,
    k: int = 1,
) -> Dataset:
    """Release every attribute from its plan `(assignments, centroids)`.

    Each cluster gets exactly one draw from the attribute's substream,
    shared by all of its records: a Laplace draw at `noise_scale(method)`
    for numeric centroids, or one exponential-mechanism label per cluster
    for categorical ones (candidates are the spanned subtree, or the whole
    taxonomy for plain-laplace). Without a budget the bare centroids are
    released, unclamped.
    """
    released: list[np.ndarray | tuple] = []
    for index, (attr, (assignments, centroids)) in enumerate(zip(data.schema, plans)):
        rng = attribute_substream(seed, index)
        if attr.kind == NUMERIC:
            values = np.asarray(centroids)[assignments]
            if budget is not None:
                scale = noise_scale(method, delta=attr.sensitivity, budget=budget, k=k, n=data.n)
                values = values + laplace_from_uniform(rng.random(len(centroids)), scale)[assignments]
                if clamp:
                    values = np.clip(values, attr.lower, attr.upper)
            released.append(values)
            continue
        labels = centroids
        if budget is not None:
            taxonomy = data.schema.taxonomy_for(attr.name)
            candidates = sorted(taxonomy.nodes) if method == "plain-laplace" else None
            members: list[list[str]] = [[] for _ in centroids]
            for label, cid in zip(data.column(attr.name), assignments.tolist()):
                members[cid].append(label)
            labels = [
                exponential_mechanism_centroid(
                    taxonomy, cluster, budget.epsilon_per_attribute, 1.0, rng, candidates=candidates
                )
                for cluster in members
            ]
        released.append(tuple(labels[cid] for cid in assignments))
    return data.with_columns(released)


def _ir_plans(data: Dataset, k: int) -> Iterator[tuple[np.ndarray, Sequence]]:
    """Individual-ranking plan of each attribute, built one at a time."""
    for attr in data.schema:
        plan = microagg.individual_ranking(
            data.column(attr.name), k,
            taxonomy=None if attr.kind == NUMERIC else data.schema.taxonomy_for(attr.name),
            attribute=attr.name,
        )
        yield plan.assignments, plan.centroids


def _mv_plans(data: Dataset, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The shared multivariate partition, split into one plan per column."""
    plan = microagg.multivariate_baseline(data, k)
    return [(plan.assignments, plan.centroids[:, index]) for index in range(data.m)]


def ir_dp_release(
    data: Dataset,
    k: int,
    budget: PrivacyBudget,
    seed: int,
    clamp: bool = True,
) -> Dataset:
    """Individual-ranking release with per-cluster calibrated noise.

    Numeric attributes add one shared Laplace draw per cluster at scale
    delta / (k * epsilon_attr); categorical attributes draw one label per
    cluster through the exponential mechanism. Record order is preserved.
    """
    return _perturb(data, _ir_plans(data, k), "ir-dp", budget, seed, clamp, k)


def plain_laplace_release(
    data: Dataset,
    budget: PrivacyBudget,
    seed: int,
    clamp: bool = True,
) -> Dataset:
    """Record-level baseline without microaggregation.

    Numeric attributes receive an independent Laplace draw per record at
    scale m * delta / epsilon_total. Categorical attributes pass each
    record's label through the exponential mechanism over the full
    taxonomy with the same per-attribute budget.
    """
    identity = np.arange(data.n)
    plans = [(identity, column) for column in data.columns]
    return _perturb(data, plans, "plain-laplace", budget, seed, clamp)


def mv_dp_release(
    data: Dataset,
    k: int,
    budget: PrivacyBudget,
    seed: int,
    clamp: bool = True,
) -> Dataset:
    """Multivariate baseline: one record partition, noisier centroids.

    All attributes share the record-level clusters, so the whole released
    table moves when one record changes and each attribute pays scale
    (n/k) * delta / (k * epsilon_total). Numeric data only.
    """
    return _perturb(data, _mv_plans(data, k), "mv-dp", budget, seed, clamp, k)


def ir_only_release(data: Dataset, k: int) -> Dataset:
    """Noise-free individual ranking; utility floor for the main method."""
    return _perturb(data, _ir_plans(data, k), "ir-only")


def mv_only_release(data: Dataset, k: int) -> Dataset:
    """Noise-free multivariate microaggregation; numeric data only."""
    return _perturb(data, _mv_plans(data, k), "mv-only")
