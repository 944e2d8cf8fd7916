"""Release mechanisms: calibrated noise on top of microaggregation.

The main release microaggregates each attribute with individual ranking
and perturbs each cluster centroid once, so every record of a cluster
receives the same draw. One changed record moves the centroid sequence
by at most delta/k in L1, which is why the per-attribute Laplace scale
is delta / (k * epsilon_attr); fresh noise per record would multiply the
effective sensitivity by k and break the guarantee. Under an m-attribute
budget each attribute runs with epsilon_total / m.

Every release is the same three steps, `execute_release`:
`release_plans` gives every attribute a `microagg.ClusterPlan` (the
cluster of each record, the members and size of each cluster, one
centroid per cluster); `perturb` draws once per cluster and returns the
released plans, whose centroids are the released cluster values (a
categorical draw depends only on the cluster's multiset of labels, so
its distribution is built once per distinct multiset, from the
marginalities an individual-ranking plan keeps, or for `plain-laplace`
from each distinct label's distances to the whole taxonomy, a block of
labels at a time); and
`records`, the one place where cluster values are tied to the records,
gives each released plan as a per-cluster column, its released values
and its `assignments`; `execute_release` spreads them into a table,
`harness.run_release` writes them as they are. `records` is also the one
place where node ids become labels: a label plan's centroids, planned or
released, are taxonomy node ids. Plans hold no budget and no seed, so a
sweep reuses one plan for all of its epsilons and runs. The methods
differ only in the plan and the scale: `plain-laplace` makes every record its
own cluster (scale m * delta / epsilon_total), `mv-dp` gives every
attribute its column of one record-level partition (scale
(n/k) * delta / (k * epsilon_total)), and the `*-only` variants release
the planned centroids without noise.
Before planning, a release rejects a numeric value outside its domain
and a label outside its taxonomy; a noisy release also rejects a budget
split over fewer attributes than the data has. The empirical privacy
check lives in `oracle`.

Randomness: every attribute draws from its own substream seeded by
(seed, attribute index), so results do not depend on attribute evaluation
order and identical inputs reproduce byte-identical releases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import microagg
from .data import NUMERIC, AttributeSchema, ClusterColumn, Dataset, check_values
# `marginality` stays a module global here for the benchmark tracer's call counter.
from .taxonomy import Taxonomy, marginality  # noqa: F401

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
    # -scale * sign(u - 0.5) * log1p(-2 * |u - 0.5|), in that order, in two buffers.
    shifted = np.where(u == 0.0, 2.0 ** -53, u)
    shifted -= 0.5
    out = np.sign(shifted)
    out *= -scale
    np.abs(shifted, out=shifted)
    shifted *= -2.0
    np.log1p(shifted, out=shifted)
    out *= shifted
    return out if out.ndim else float(out)


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
    baselines return 0; a noisy method whose epsilon per attribute
    underflows to 0, or whose scale overflows, is a `ValueError`.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if method in ("ir-dp", "plain-laplace", "mv-dp") and not budget.epsilon_per_attribute > 0:
        raise ValueError(f"epsilon must be positive and finite, got {budget.epsilon_per_attribute}")
    if method == "ir-dp":
        scale = delta / (k * budget.epsilon_per_attribute)
    elif method == "plain-laplace":
        scale = delta / budget.epsilon_per_attribute
    elif method == "mv-dp":
        if n is None:
            raise ValueError("mv-dp scale needs the record count n")
        scale = (n / k) * delta / (k * budget.epsilon_total)
    elif method in ("ir-only", "mv-only"):
        return 0.0
    else:
        raise ValueError(f"unknown method {method!r}")
    if not math.isfinite(scale):
        raise ValueError(f"noise scale overflows: epsilon {budget.epsilon_total!r} is too small")
    return scale


def exponential_mechanism_centroid(
    taxonomy: Taxonomy, cluster_values: Sequence[str], epsilon: float, sensitivity_q: float,
    rng: np.random.Generator, candidates: Iterable[str] | None = None,
) -> str:
    """Draw a centroid label with probability falling off in marginality.

    Candidates default to the subtree spanned by the cluster; a fixed
    candidate set can be supplied instead (the per-record baseline uses
    the full taxonomy), and a label listed twice is still one candidate.
    Quality of a candidate is the negated marginality against the cluster
    multiset, and a label is drawn with probability proportional to
    exp(epsilon * quality / (2 * sensitivity_q)). Labels are mapped to
    node ids after the arguments are checked: candidates first, in sorted
    order, then values, in input order.
    """
    values = list(cluster_values)
    cands = None if candidates is None else sorted(set(candidates))
    if not values:
        raise ValueError("empty cluster")
    _check_epsilon(epsilon, sensitivity_q)
    if cands is not None and not cands:
        raise ValueError("candidates must be non-empty")
    cand_ids = None if cands is None else taxonomy.node_ids(cands)
    value_ids = taxonomy.node_ids(values)
    if cand_ids is None:
        cand_ids = taxonomy.spanned_ids(value_ids)
    scores = taxonomy.marginalities(cand_ids, value_ids)
    return taxonomy.labels[cand_ids[_draw(_centroid_cdf(scores, epsilon, sensitivity_q), rng.random())]]


def _check_epsilon(epsilon: float, sensitivity_q: float) -> None:
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not (math.isfinite(sensitivity_q) and sensitivity_q > 0):
        raise ValueError(f"sensitivity_q must be positive and finite, got {sensitivity_q}")


def _centroid_cdf(scores: np.ndarray, epsilon: float, sensitivity_q: float) -> np.ndarray:
    """The CDF `exponential_mechanism_centroid` draws from, over candidates with marginalities `scores`.

    The ε-dependent step, which checks `epsilon` and `sensitivity_q` as
    `exponential_mechanism_centroid` does.
    """
    _check_epsilon(epsilon, sensitivity_q)
    logits = -epsilon * scores / (2.0 * sensitivity_q)
    logits -= np.maximum.reduce(logits)
    weights = np.exp(logits)
    return np.add.accumulate(weights / np.add.reduce(weights))


def _draw(cdf: np.ndarray, u: np.ndarray | float) -> np.ndarray | int:
    """The candidate index that each uniform `u` selects from `cdf`."""
    return np.minimum(cdf.searchsorted(u, side="right"), len(cdf) - 1)


def release_plans(data: Dataset, method: str, k: int) -> Iterable[microagg.ClusterPlan]:
    """The `ClusterPlan` of every attribute under `method`.

    Individual ranking (`ir-*`) plans lazily, one attribute at a time; the
    multivariate methods (`mv-*`) give every attribute a column of one
    shared partition; `plain-laplace` makes every record its own cluster.
    Plans depend on neither the budget nor the seed, and their arrays are
    read-only, so one plan can serve many releases. The checked columns
    are planned, labels as node ids; a NaN or out-of-domain number, or a
    label not in its taxonomy, is rejected, naming its record and column.
    """
    checked = check_values(data.schema, data.columns, bounds=True)
    if method in ("ir-dp", "ir-only"):
        checked.reverse()  # popped as planned: a column's checked ids go once its plan has its own
        return (
            microagg.individual_ranking(
                checked.pop(), k,
                taxonomy=None if attr.kind == NUMERIC else data.schema.taxonomy_for(attr.name),
            )
            for attr in data.schema
        )
    if method in ("mv-dp", "mv-only"):
        plan = microagg.multivariate_baseline(data, k)
        return [replace(plan, centroids=plan.centroids[:, index]) for index in range(data.m)]
    if method == "plain-laplace":
        identity = np.arange(data.n)
        ones = np.ones(data.n, dtype=np.int64)
        for array in (identity, ones, *checked):  # a checked label column is a fresh id array
            array.flags.writeable = False
        return [microagg.ClusterPlan(identity, column, ones, identity) for column in checked]
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def perturb(
    data: Dataset,
    plans: Iterable[microagg.ClusterPlan],
    cfg: MechanismConfig,
) -> Iterator[microagg.ClusterPlan]:
    """The released plans: every attribute's `ClusterPlan` with its released cluster values.

    Each cluster gets exactly one uniform from the attribute's substream,
    in cluster order, shared by all of its records: a Laplace draw at
    `noise_scale` for numeric centroids, or one exponential-mechanism
    node id for categorical ones (candidates are the spanned subtree, or
    the whole taxonomy for plain-laplace), never from a label of `data`.
    The CDF depends only on the cluster's multiset of node ids, so it is
    built once per distinct multiset and shared: from the plan's kept
    `groups` scores for the spanned subtree, or, for plain-laplace, whose
    centroids are the records' own node ids, from one distance row per
    distinct label for the whole taxonomy. The drawn ids are those of the
    labels of one `exponential_mechanism_centroid` call per cluster.
    A noiseless method releases the bare centroids, unclamped: its plan
    is its own released plan. Plans are released one at a time, as they
    are read; `records` ties them to the records. A noisy release with
    `budget.m < data.m` would overspend `epsilon_total`: `ValueError`,
    raised by this call.
    """
    noisy = cfg.method not in ("ir-only", "mv-only")
    if noisy and cfg.budget.m < data.m:
        raise ValueError(f"budget split over m={cfg.budget.m} attributes, but the data has {data.m}")
    # A flat zip: enumerate would cache a tuple holding the previous plan.
    return (
        _released_plan(data, index, attr, plan, cfg) if noisy else plan
        for index, attr, plan in zip(range(data.m), data.schema, plans)
    )


def _released_plan(
    data: Dataset, index: int, attr: AttributeSchema, plan: microagg.ClusterPlan,
    cfg: MechanismConfig,
) -> microagg.ClusterPlan:
    """`plan` with one noisy draw per cluster from substream `index`, as `perturb` describes."""
    rng = attribute_substream(cfg.seed, index)
    if attr.kind == NUMERIC:
        scale = noise_scale(
            cfg.method, delta=attr.sensitivity, budget=cfg.budget, k=cfg.effective_k, n=data.n,
        )
        # The centroids plus their noise, clamped, in the noise's own buffer.
        values = laplace_from_uniform(rng.random(plan.n_clusters), scale)
        np.add(plan.centroids, values, out=values)
        if cfg.clamp:
            np.clip(values, attr.lower, attr.upper, out=values)
        values.flags.writeable = False
        return replace(plan, centroids=values)
    taxonomy = data.schema.taxonomy_for(attr.name)
    epsilon = cfg.budget.epsilon_per_attribute
    if cfg.method == "plain-laplace":
        # Every record is its own cluster, scored against the whole taxonomy:
        # a one-label multiset's marginalities are its distances to every
        # node, made a block of distinct labels at a time, as they are drawn.
        everything = np.arange(len(taxonomy))
        groups = (
            (group, everything, scores)
            for clusters, rows in plan.distinct_clusters(plan.centroids)
            for group, scores in zip(clusters, chain.from_iterable(taxonomy.distance_rows(rows[:, 0])))
        )
    else:
        groups = plan.groups
    # One uniform per cluster in cluster order, as one scalar draw per cluster
    # would take them; one CDF per distinct multiset, shared by its clusters.
    u = rng.random(plan.n_clusters)
    drawn = np.empty(plan.n_clusters, dtype=np.intp)
    for group, cands, scores in groups:
        drawn[group] = cands[_draw(_centroid_cdf(scores, epsilon, 1.0), u[group])]
    drawn.flags.writeable = False
    return replace(plan, centroids=drawn)


def records(data: Dataset, released: Iterable[microagg.ClusterPlan]) -> Iterator[ClusterColumn]:
    """The released columns, one `data.ClusterColumn` per attribute, in schema order.

    This is the one place where released cluster values are tied to the
    records, as a plan's released values and its `assignments`, and the
    one place where node ids become labels: a label column's values are
    `labels[centroids]`, gathered through one object array of labels per
    taxonomy. `execute_release` spreads the columns into a table;
    `harness.run_release` writes them as they are, each cluster's value
    formatted once. Each plan is taken as it arrives, so a lazy `perturb`
    holds one attribute's plan at a time.
    """
    names: dict[Taxonomy, np.ndarray] = {}
    for attr, plan in zip(data.schema, released):
        values = plan.centroids
        if attr.kind != NUMERIC:
            taxonomy = data.schema.taxonomy_for(attr.name)
            if taxonomy not in names:
                names[taxonomy] = np.array(taxonomy.labels, dtype=object)
            values = names[taxonomy][values]
        yield ClusterColumn(values, plan.assignments)


def execute_release(
    cfg: MechanismConfig, data: Dataset, *, table: bool = True
) -> Dataset | list[microagg.ClusterPlan]:
    """The release `cfg` describes: a table, or with `table=False` its released plans.

    The table is `records`'s columns spread over the records. The plans
    are kept as they come without `sorted_indices` and `groups`, which
    only planning and the draws read, so that together they take about
    the memory of the table; `harness.run_release` scores them and writes
    their `records` unspread. Either way individual-ranking plans are
    built one at a time.
    """
    released = perturb(data, release_plans(data, cfg.method, cfg.k), cfg)
    if not table:
        return [replace(plan, sorted_indices=None, groups=None) for plan in released]
    return Dataset(data.schema, [column.per_record() for column in records(data, released)])


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
    return execute_release(MechanismConfig("ir-dp", k, budget, seed, clamp), data)


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
    return execute_release(MechanismConfig("plain-laplace", 1, budget, seed, clamp), data)


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
    return execute_release(MechanismConfig("mv-dp", k, budget, seed, clamp), data)

