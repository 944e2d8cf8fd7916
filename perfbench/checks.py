"""Output checks, run after the timed repetitions.

Every check is one operation of the run; a failed check counts in the
run's `failed` total. The checks use only microdp's public functions and
the generator's own record of what it wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from inputs import LOWER, UPPER
from workloads import (
    EPSILON,
    SWEEP_EPSILON,
    SWEEP_K,
    SWEEP_METHODS,
    SWEEP_RUNS,
    Call,
)


class CheckLog:
    """Named pass/fail results in the order they ran."""

    def __init__(self) -> None:
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def failed(self) -> int:
        return sum(not item["ok"] for item in self.items)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def shared_draw_violations(original, released, k: int, taxonomy=None) -> int:
    """Clusters of the rebuilt ir-dp plan whose released values differ.

    `released` holds the released cells as text, so equal values compare
    equal whatever their type. The plan comes from the public
    `individual_ranking`, as the release itself builds it.
    """
    from microdp import individual_ranking

    plan = individual_ranking(original, k, taxonomy=taxonomy)
    in_rank_order = np.asarray(released)[plan.sorted_indices]
    starts = np.concatenate(([0], np.cumsum(plan.sizes)[:-1]))
    expected = np.repeat(in_rank_order[starts], plan.sizes)
    cluster_of_rank = np.repeat(np.arange(plan.n_clusters), plan.sizes)
    return int(np.unique(cluster_of_rank[in_rank_order != expected]).size)


def check_release(log: CheckLog, call: Call) -> None:
    from microdp import PrivacyBudget, load_taxonomy, noise_scale

    table = call.table
    label = call.out.name
    with open(call.out, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    log.add(f"{label}: input header", header == table.header, f"{header}")
    log.add(f"{label}: {table.n} rows", len(body) == table.n, f"{len(body)} rows")
    if header != table.header or len(body) != table.n:
        return
    released = dict(zip(header, (list(col) for col in zip(*body))))
    taxonomy = load_taxonomy(table.taxonomy_path) if table.categorical else None

    for name in table.numeric:
        values = np.array(released[name], dtype=float)
        outside = int(np.count_nonzero((values < LOWER) | (values > UPPER)))
        log.add(f"{label}: {name} within [{LOWER:g}, {UPPER:g}]", outside == 0,
                f"{outside} values outside")
    for name in table.categorical:
        unknown = sorted(set(released[name]) - taxonomy.nodes)
        log.add(f"{label}: {name} labels are taxonomy nodes", not unknown, f"unknown {unknown[:5]}")

    if call.method == "ir-dp":
        for name in table.header:
            if name in table.numeric:
                bad = shared_draw_violations(table.numeric[name], released[name], call.k)
            else:
                bad = shared_draw_violations(
                    table.categorical[name], released[name], call.k, taxonomy
                )
            log.add(f"{label}: {name} constant within each ir-dp cluster", bad == 0,
                    f"{bad} clusters with more than one released value")

    report = json.loads(call.sidecar.read_text(encoding="utf-8"))
    budget = PrivacyBudget(epsilon_total=EPSILON, m=table.m)
    k = 1 if call.method == "plain-laplace" else call.k
    for entry in report["params"]["attributes"]:
        if entry["kind"] != "numeric":
            continue
        expected = noise_scale(call.method, delta=UPPER - LOWER, budget=budget, k=k, n=table.n)
        log.add(f"{label}: {entry['name']} noise_scale", entry.get("noise_scale") == expected,
                f"report {entry.get('noise_scale')!r}, expected {expected!r}")


def sweep_cells(call: Call) -> list[dict]:
    return json.loads(call.sidecar.read_text(encoding="utf-8"))["cells"]


def check_sweep(log: CheckLog, call: Call) -> None:
    cells = sweep_cells(call)
    expected = len(SWEEP_METHODS) * len(SWEEP_K) * len(SWEEP_EPSILON)
    ok_cells = [c for c in cells if c["status"] == "ok" and len(c["runs"]) == SWEEP_RUNS]
    log.add(f"sweep: {expected} cells ok with {SWEEP_RUNS} runs each",
            len(cells) == expected and len(ok_cells) == expected,
            f"{len(ok_cells)} of {len(cells)} cells")
    with open(call.out, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    log.add(f"sweep: CSV has {expected} rows of {SWEEP_RUNS} runs",
            len(rows) == expected and all(r["run_count"] == str(SWEEP_RUNS) for r in rows),
            f"{len(rows)} rows")
    means = {(c["method"], c["k"], c["epsilon"]): c["re_mean"] for c in ok_cells}
    for eps in SWEEP_EPSILON:
        ir = means.get(("ir-dp", 10, eps))
        plain = means.get(("plain-laplace", 10, eps))
        ok = ir is not None and plain is not None and ir < plain
        log.add(f"sweep: ir-dp RE below plain-laplace RE at k=10, epsilon={eps:g}", ok,
                f"ir-dp {ir}, plain-laplace {plain}")


def check_outputs(log: CheckLog, calls: list[Call]) -> None:
    for call in calls:
        if not all(path.is_file() for path in call.outputs):
            log.add(f"{call.out.name}: outputs exist", False, "missing output file")
        elif call.kind == "release":
            check_release(log, call)
        else:
            check_sweep(log, call)
