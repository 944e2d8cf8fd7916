"""The benchmark workloads: fixed CLI call sequences on seeded inputs.

Each workload stresses a different layer of microdp (see README.md in
this directory for the reasons and the expected breakdown). Sizes are
scaled down from the reference sizes n=5e5, 2e4 and 1e5 so that one
repetition takes one to three seconds on a 2-core machine and a run of
the benchmark holds several repetitions; the layer mix of each workload
is the same at either size.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from inputs import Table, categorical_table, numeric_table

EPSILON = 1.0
RELEASE_SEED = 7
RELEASE_K = 10
SWEEP_METHODS = ("ir-dp", "plain-laplace", "mv-dp")
SWEEP_K = (2, 10, 25)
SWEEP_EPSILON = (0.1, 1.0, 10.0)
SWEEP_RUNS = 10


@dataclass(frozen=True)
class Sizes:
    """Row counts of the generated tables."""

    numeric_n: int = 100_000
    categorical_n: int = 2_500
    plain_n: int = 100
    sweep_n: int = 10_000


# Tables small enough for the self-test to run every workload in seconds.
TINY = Sizes(numeric_n=500, categorical_n=200, plain_n=20, sweep_n=300)


@dataclass
class Call:
    """One CLI invocation and what the checks need to know about it."""

    kind: str  # "release" or "sweep"
    table: Table
    out: Path
    method: str = ""
    k: int = RELEASE_K

    @property
    def sidecar(self) -> Path:
        suffix = ".report.json" if self.kind == "release" else ".runs.json"
        return self.out.with_name(self.out.name + suffix)

    @property
    def outputs(self) -> list[Path]:
        return [self.out, self.sidecar]

    @property
    def released_values(self) -> int:
        """Attribute values released by this call, n * m per release."""
        releases = 1
        if self.kind == "sweep":
            releases = len(SWEEP_METHODS) * len(SWEEP_K) * len(SWEEP_EPSILON) * SWEEP_RUNS
        return releases * self.table.n * self.table.m

    def argv(self) -> list[str]:
        common = ["--data", str(self.table.csv_path), "--schema", str(self.table.schema_path),
                  "--seed", str(RELEASE_SEED), "--out", str(self.out)]
        if self.kind == "release":
            return ["release", "--method", self.method, "--k", str(self.k),
                    "--epsilon", repr(EPSILON), *common]
        return [
            "sweep", "--method", ",".join(SWEEP_METHODS),
            "--k", ",".join(str(k) for k in SWEEP_K),
            "--epsilon", ",".join(repr(e) for e in SWEEP_EPSILON),
            "--runs", str(SWEEP_RUNS), *common,
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[Path, int, Sizes], list[Call]]


def _release_numeric(directory: Path, seed: int, sizes: Sizes) -> list[Call]:
    table = numeric_table(directory, "numeric", sizes.numeric_n, 5, seed)
    return [Call("release", table, directory / "numeric-ir-dp.csv", "ir-dp")]


def _release_categorical(directory: Path, seed: int, sizes: Sizes) -> list[Call]:
    big = categorical_table(directory, "categorical", sizes.categorical_n, seed)
    small = categorical_table(directory, "categorical-small", sizes.plain_n, seed)
    return [
        Call("release", big, directory / "categorical-ir-dp.csv", "ir-dp"),
        Call("release", small, directory / "categorical-plain-laplace.csv", "plain-laplace"),
    ]


def _sweep_grid(directory: Path, seed: int, sizes: Sizes) -> list[Call]:
    table = numeric_table(directory, "sweep", sizes.sweep_n, 5, seed)
    return [Call("sweep", table, directory / "sweep-grid.csv")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "release-numeric",
            "ir-dp on a wide numeric table; CSV load and write dominate",
            _release_numeric,
        ),
        Workload(
            "release-categorical",
            "ir-dp then plain-laplace on Zipf-skewed taxonomy labels; taxonomy and noise dominate",
            _release_categorical,
        ),
        Workload(
            "sweep-grid",
            "27-cell x 10-run sweep on one table; repeated planning and metrics dominate",
            _sweep_grid,
        ),
    )
}
