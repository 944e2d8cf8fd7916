"""Experiment harness: single releases and parameter sweeps.

A sweep walks the Cartesian grid of (method, k, epsilon, attribute
subset), repeats every cell `runs` times with seeds derived by hashing
the cell coordinates into the master seed, and writes one aggregate CSV
row per cell plus a JSON sidecar with per-run raw values. Hash-derived
seeds keep cells independent, so they could run in any order or in
parallel without changing output. Reruns are byte-identical on the same
numpy build and CPU kernel path. Elsewhere the metric floats in the CSV
and sidecar may differ in the last bit, because numpy's float kernels
(with and without AVX-512, for one) may sum in another order.

Every release, from `run_release` or from the sweep, is
`mechanisms.perturb` of `mechanisms.release_plans`. A plan (the clusters
and centroids of every attribute) depends on neither epsilon nor the
seed, so the sweep builds each plan once per (method, k, attribute
subset) and perturbs it once per (epsilon, run); only the current
(method, k) group's plans are held. `metrics.measure(original,
released)` scores one release. Neither builds a per-record table: both
score the released plans themselves, so the JSD bins one value per
cluster, and the figures are those of the table to the bit.
`run_release` takes the released plans from
`mechanisms.execute_release(..., table=False)` and writes their
per-cluster columns (`mechanisms.records`), each cluster's value
formatted once, and `report.json`, which is
`measure`'s figures followed by the release's parameters; its bytes are
those of `data.write_dataset` of `mechanisms.execute_release`. The
sweep computes the original-side metric terms once per subset, in one
`metrics.Reference`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import NUMERIC, Dataset, load_dataset, load_schema, write_dataset
# `ir_dp_release`, `plain_laplace_release` and `mv_dp_release` are not called here;
# they stay module globals for the benchmark tracer's spans.
from .mechanisms import (  # noqa: F401
    MechanismConfig,
    PrivacyBudget,
    execute_release,
    ir_dp_release,
    mv_dp_release,
    noise_scale,
    perturb,
    plain_laplace_release,
    records,
    release_plans,
)
# `relative_error`, `jsd` and `variance_delta` are not called here either (`measure`
# scores all three in one pass); they stay module globals for the tracer's spans.
from .metrics import (  # noqa: F401
    Reference,
    UtilityReport,
    jsd,
    measure,
    relative_error,
    variance_delta,
)

SWEEP_HEADER = ("method", "k", "epsilon", "m", "re_mean", "jsd_mean", "run_count")


def _params_record(cfg: MechanismConfig, data: Dataset) -> dict:
    attrs = []
    for attr in data.schema:
        entry: dict[str, object] = {"name": attr.name, "kind": attr.kind}
        if attr.kind == NUMERIC:
            entry["lower"] = attr.lower
            entry["upper"] = attr.upper
            entry["delta"] = attr.sensitivity
            entry["noise_scale"] = noise_scale(
                cfg.method, delta=attr.sensitivity, budget=cfg.budget,
                k=cfg.effective_k, n=data.n,
            )
        else:
            entry["taxonomy"] = attr.taxonomy_ref
            entry["delta"] = attr.sensitivity
        attrs.append(entry)
    return {
        "method": cfg.method,
        "k": cfg.k,
        "effective_k": cfg.effective_k,
        "epsilon_total": cfg.budget.epsilon_total,
        "m": cfg.budget.m,
        "epsilon_per_attribute": cfg.budget.epsilon_per_attribute,
        "seed": cfg.seed,
        "clamp": cfg.clamp,
        "n": data.n,
        "attributes": attrs,
    }


def run_release(
    cfg: MechanismConfig, data: Dataset, out_path: str | Path
) -> tuple[Path, UtilityReport]:
    """Release a dataset to `out_path` and write its report beside it: `measure`, then `params`.

    No per-record table is built. The released plans
    (`execute_release(..., table=False)`) are scored as plans, as the
    sweep scores them, and written as the per-cluster columns of
    `records`, each cluster's value formatted once. The bytes are those
    of `write_dataset` of `execute_release`, and the figures those of
    `measure` of that table.
    """
    released = execute_release(cfg, data, table=False)
    report = measure(data, released)
    out_path = Path(out_path)
    write_dataset((data.schema, list(records(data, released))), out_path)
    report_path = out_path.with_name(out_path.name + ".report.json")
    payload = {**report.to_json_dict(), "params": _params_record(cfg, data)}
    report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return out_path, report


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for `run_sweep`."""

    data_path: str
    schema_path: str
    methods: tuple[str, ...]
    k_values: tuple[int, ...]
    epsilon_values: tuple[float, ...]
    runs: int = 10
    master_seed: int = 0
    attribute_subsets: tuple[tuple[str, ...], ...] | None = None
    clamp: bool = True
    out_path: str = "sweep.csv"

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("sweep needs at least one method")
        if not self.k_values:
            raise ValueError("sweep needs at least one k")
        if not self.epsilon_values:
            raise ValueError("sweep needs at least one epsilon")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")


def cell_seed(master_seed: int, method: str, k: int, epsilon: float,
              subset: Sequence[str], run_index: int) -> int:
    """Stable 64-bit seed for one run of one grid cell."""
    key = f"{master_seed}|{method}|{k}|{epsilon!r}|{','.join(subset)}|{run_index}"
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


@dataclass
class CellResult:
    method: str
    k: int
    epsilon: float
    subset: tuple[str, ...]
    status: str
    error: str | None = None
    runs: list = field(default_factory=list)
    re_mean: float | None = None
    jsd_mean: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "epsilon": self.epsilon,
            "attributes": list(self.subset),
            "m": len(self.subset),
            "status": self.status,
            "error": self.error,
            "re_mean": self.re_mean,
            "jsd_mean": self.jsd_mean,
            "runs": self.runs,
        }


def run_sweep(spec: SweepSpec) -> list[CellResult]:
    """Execute the full grid, tolerating per-cell failures.

    Every grid cell lands in the output exactly once: as an aggregate row
    in the CSV (empty means and run_count 0 when the cell failed) and as
    a full entry with per-run raw values in `<out>.runs.json`.
    """
    schema = load_schema(spec.schema_path)
    full_data = load_dataset(spec.data_path, schema)
    subsets = [tuple(subset) for subset in spec.attribute_subsets or (full_data.schema.names,)]
    references: dict[tuple[str, ...], Reference] = {}
    results: list[CellResult] = []
    for method in spec.methods:
        for k in spec.k_values:
            plans: dict[tuple[str, ...], list] = {}
            for epsilon in spec.epsilon_values:
                for subset in subsets:
                    results.append(
                        _run_cell(spec, full_data, method, k, epsilon, subset, references, plans)
                    )
    _write_sweep_csv(spec, results)
    _write_sweep_sidecar(spec, results)
    return results


def _run_cell(spec: SweepSpec, full_data: Dataset, method: str, k: int, epsilon: float,
              subset: tuple[str, ...], references: dict, plans: dict) -> CellResult:
    """One grid cell.

    `references` holds one metric `Reference` per subset and `plans` the
    release plans of this (method, k) per subset, so that every epsilon
    and run reuses them. A build that fails is not cached: every cell that
    shares it builds it again and reports the same error.
    """
    cell = CellResult(method=method, k=k, epsilon=epsilon, subset=subset, status="ok")
    try:
        if subset not in references:
            references[subset] = Reference(full_data.subset(subset))
        ref = references[subset]
        data = ref.original
        budget = PrivacyBudget(epsilon_total=epsilon, m=len(subset))
        configs = [
            MechanismConfig(
                method=method, k=k, budget=budget, clamp=spec.clamp,
                seed=cell_seed(spec.master_seed, method, k, epsilon, subset, run_index),
            )
            for run_index in range(spec.runs)
        ]
        if subset not in plans:
            plans[subset] = list(release_plans(data, method, k))
        cell_plans = plans[subset]
        for run_index, cfg in enumerate(configs):
            report = measure(ref, list(perturb(data, cell_plans, cfg)))
            cell.runs.append({
                "run": run_index,
                "seed": cfg.seed,
                "re": report.re_dataset,
                "jsd": report.jsd_dataset,
                "re_per_attribute": dict(report.re_per_attribute),
                "jsd_per_attribute": dict(report.jsd_per_attribute),
                "variance_delta_per_attribute": dict(report.variance_delta_per_attribute),
            })
        cell.re_mean = float(np.mean([run["re"] for run in cell.runs]))
        cell.jsd_mean = float(np.mean([run["jsd"] for run in cell.runs]))
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill the sweep
        cell.status = "failed"
        cell.error = f"{type(exc).__name__}: {exc}"
        cell.runs = []
    return cell


def _write_sweep_csv(spec: SweepSpec, results: list[CellResult]) -> None:
    lines = [",".join(SWEEP_HEADER)]
    for cell in results:
        if cell.status == "ok":
            row = (
                cell.method, str(cell.k), repr(cell.epsilon), str(len(cell.subset)),
                repr(cell.re_mean), repr(cell.jsd_mean), str(len(cell.runs)),
            )
        else:
            row = (cell.method, str(cell.k), repr(cell.epsilon), str(len(cell.subset)), "", "", "0")
        lines.append(",".join(row))
    Path(spec.out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sweep_sidecar(spec: SweepSpec, results: list[CellResult]) -> None:
    out = Path(spec.out_path)
    sidecar = out.with_name(out.name + ".runs.json")
    payload = {
        "master_seed": spec.master_seed,
        "data": str(spec.data_path),
        "schema": str(spec.schema_path),
        "runs_per_cell": spec.runs,
        "clamp": spec.clamp,
        "cells": [cell.to_json_dict() for cell in results],
    }
    # Streamed, not built as one string, which would be the sweep's memory peak.
    with sidecar.open("w", encoding="utf-8") as out:
        json.dump(payload, out, indent=2)
        out.write("\n")
