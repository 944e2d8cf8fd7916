"""Seeded synthetic inputs for the benchmark workloads.

Every table is a pure function of its parameters and the seed. Numeric
values are whole micro-units divided by 10**6, so the six-decimal CSV text
parses back to exactly the float64 held in memory; the output checks
rebuild cluster plans from these arrays and must see what the CLI saw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LOWER = 0.0
UPPER = 1000.0
TAXONOMY_FANOUT = 10
TAXONOMY_DEPTH = 3
ZIPF_EXPONENT = 1.1


@dataclass
class Table:
    """One generated input on disk plus the columns it holds."""

    csv_path: Path
    schema_path: Path
    header: list[str]
    numeric: dict[str, np.ndarray]
    categorical: dict[str, list[str]] = field(default_factory=dict)
    taxonomy_path: Path | None = None

    @property
    def n(self) -> int:
        cols = list(self.numeric.values()) + list(self.categorical.values())
        return len(cols[0])

    @property
    def m(self) -> int:
        return len(self.header)

    def properties(self) -> dict:
        """Input properties recorded with every result."""
        props = {
            "csv": self.csv_path.name,
            "n": self.n,
            "m": self.m,
            "numeric_attrs": len(self.numeric),
            "categorical_attrs": len(self.categorical),
            "file_bytes": self.csv_path.stat().st_size,
        }
        if self.taxonomy_path is not None:
            lines = self.taxonomy_path.read_text(encoding="utf-8").splitlines()
            props["taxonomy_nodes"] = len([line for line in lines if line])
            props["distinct_labels"] = {
                name: len(set(col)) for name, col in self.categorical.items()
            }
        return props


def _micro_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, int(UPPER) * 10**6 + 1, size=n) / 1e6


def _taxonomy_edges() -> tuple[list[tuple[str, str]], list[str]]:
    """Complete tree: root, then TAXONOMY_DEPTH levels of TAXONOMY_FANOUT children."""
    edges: list[tuple[str, str]] = []
    level = ["root"]
    for _ in range(TAXONOMY_DEPTH):
        nxt = []
        for parent in level:
            for i in range(TAXONOMY_FANOUT):
                child = f"n{i}" if parent == "root" else f"{parent}.{i}"
                edges.append((parent, child))
                nxt.append(child)
        level = nxt
    return edges, level


def _write_schema(path: Path, numeric: list[str], categorical: list[str], taxonomy: str | None) -> None:
    sections = [f"[{name}]\nkind = numeric\nlower = {LOWER:g}\nupper = {UPPER:g}\n" for name in numeric]
    sections += [f"[{name}]\nkind = categorical\ntaxonomy = {taxonomy}\n" for name in categorical]
    path.write_text("\n".join(sections), encoding="utf-8")


def _write_csv(path: Path, header: list[str], columns: list[list[str]]) -> None:
    rows = [",".join(header)]
    rows.extend(",".join(cells) for cells in zip(*columns))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def numeric_table(directory: Path, name: str, n: int, m: int, seed: int) -> Table:
    """n rows of m uniform [LOWER, UPPER] columns named a0..a{m-1}."""
    rng = np.random.default_rng([seed, n, m])
    header = [f"a{j}" for j in range(m)]
    numeric = {col: _micro_uniform(rng, n) for col in header}
    table = Table(directory / f"{name}.csv", directory / f"{name}.ini", header, numeric)
    _write_schema(table.schema_path, header, [], None)
    _write_csv(table.csv_path, header, [[f"{v:.6f}" for v in numeric[c]] for c in header])
    return table


def categorical_table(directory: Path, name: str, n: int, seed: int) -> Table:
    """Two uniform numeric and two categorical columns over one taxonomy.

    The taxonomy is complete with 1 + 10 + 100 + 1000 = 1111 nodes. Labels
    are leaves drawn with Zipf(ZIPF_EXPONENT) rank weights over a
    seed-dependent leaf order, so a few labels dominate every column.
    """
    rng = np.random.default_rng([seed, n, 4])
    edges, leaves = _taxonomy_edges()
    tax_path = directory / "taxonomy.tree"
    tax_path.write_text("root\n" + "".join(f"{p}\t{c}\n" for p, c in edges), encoding="utf-8")
    weights = 1.0 / np.arange(1, len(leaves) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    numeric = {col: _micro_uniform(rng, n) for col in ("x0", "x1")}
    categorical = {}
    for col in ("c0", "c1"):
        order = rng.permutation(len(leaves))
        picks = rng.choice(len(leaves), size=n, p=weights)
        categorical[col] = [leaves[order[i]] for i in picks]
    header = list(numeric) + list(categorical)
    table = Table(
        directory / f"{name}.csv", directory / f"{name}.ini", header, numeric,
        categorical, tax_path,
    )
    _write_schema(table.schema_path, list(numeric), list(categorical), tax_path.name)
    cells = [[f"{v:.6f}" for v in numeric[c]] for c in numeric] + [categorical[c] for c in categorical]
    _write_csv(table.csv_path, header, cells)
    return table
