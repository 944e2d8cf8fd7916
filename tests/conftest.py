from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from microdp import AttributeSchema, Dataset, Schema, Taxonomy
from microdp.mechanisms import records


@pytest.fixture
def chain_tax() -> Taxonomy:
    """Two depth-2 leaves under different parents: root -> x -> a, root -> y -> b."""
    return Taxonomy("root", {"x": "root", "y": "root", "a": "x", "b": "y"})


@pytest.fixture
def wide_tax() -> Taxonomy:
    return Taxonomy(
        "any",
        {
            "tech": "any", "health": "any",
            "dev": "tech", "ops": "tech", "sre": "ops",
            "nurse": "health", "doctor": "health",
        },
    )


@pytest.fixture
def numeric_schema() -> Schema:
    return Schema((AttributeSchema("v", "numeric", 0.0, 100.0),))


def make_numeric_dataset(values, lower=0.0, upper=100.0, name="v") -> Dataset:
    schema = Schema((AttributeSchema(name, "numeric", lower, upper),))
    return Dataset(schema, [np.asarray(values, dtype=float)])


def make_synthetic(n=1080, n_uniform=6, n_lognormal=2, sigma=0.2, seed=20260825) -> Dataset:
    """Mixed uniform and log-normal columns with tight explicit bounds."""
    rng = np.random.default_rng(seed)
    cols, attrs = [], []
    for i in range(n_uniform):
        cols.append(rng.uniform(0.0, 1000.0, size=n))
        attrs.append(AttributeSchema(f"u{i}", "numeric", 0.0, 1000.0))
    for i in range(n_lognormal):
        col = 400.0 * np.exp(sigma * rng.standard_normal(n))
        attrs.append(
            AttributeSchema(f"l{i}", "numeric", float(col.min()) * 0.999, float(col.max()) * 1.001)
        )
        cols.append(col)
    return Dataset(Schema(tuple(attrs)), cols)


def random_taxonomy(rng: np.random.Generator, size: int) -> Taxonomy:
    """Random tree: node i attaches to a uniformly chosen earlier node."""
    labels = [f"n{i}" for i in range(size)]
    parent = {labels[i]: labels[int(rng.integers(0, i))] for i in range(1, size)}
    return Taxonomy(labels[0], parent)


def make_big_numeric() -> Dataset:
    """A seeded 2e5 x 5 numeric table in [0, 1000], with at most six decimals."""
    rng = np.random.default_rng(200_000)
    schema = Schema(tuple(AttributeSchema(f"v{j}", "numeric", 0.0, 1000.0) for j in range(5)))
    return Dataset(schema, [rng.integers(0, 10**9, size=200_000) / 1e6 for _ in range(5)])


def released_table(data: Dataset, released) -> Dataset:
    """The table of released plans: their `records` spread over the records, as `execute_release` makes it."""
    return Dataset(data.schema, [column.per_record() for column in records(data, released)])


def traced_peak(fn):
    """`fn()` and the peak of the memory that tracemalloc traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
