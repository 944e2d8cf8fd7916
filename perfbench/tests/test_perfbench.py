"""Self-test of the benchmark, kept apart from the library's own tests.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402
from checks import CheckLog, check_outputs  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

from microdp.cli import main as microdp_main  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_every_check(tmp_path, name, trace):
    summary = run.run_workload(WORKLOADS[name], 5, 0.1, trace, ROOT, tmp_path, TINY)

    assert summary["failed"] == 0, [c for c in summary["checks"] if not c["ok"]]
    assert summary["attempted"] >= len(summary["checks"]) > 0
    kind = "per_layer" if trace else "end_to_end"
    assert list(summary["metrics"]) == list(run.declared_units(kind))
    if not trace:
        assert all(m["value"] > 0 for m in summary["metrics"].values())
    stem = f"{name}-seed5-trace{int(trace)}"
    saved = json.loads((tmp_path / "results" / f"{stem}.json").read_text(encoding="utf-8"))
    assert saved["inputs"][0]["n"] > 0 and saved["host"]["nproc"] >= 1
    assert all(rep["sha256"] for rep in saved["repetitions"])


def test_traced_counts_are_zero_for_layers_a_workload_skips(tmp_path):
    summary = run.run_workload(WORKLOADS["release-numeric"], 5, 0.1, True, ROOT, tmp_path, TINY)
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}

    assert metrics["taxonomy.semantic_distance.calls"] == 0
    assert metrics["taxonomy.marginality_centroid.calls"] == 0
    assert metrics["microagg.individual_ranking.calls"] == 5
    assert metrics["mechanisms.laplace_from_uniform.draws_per_value"] == pytest.approx(0.1)
    spans = json.loads((tmp_path / "results" / "release-numeric-seed5-spans.json").read_text())
    assert {"id", "name", "start", "end", "parent", "job"} == set(spans[0])


def test_per_record_noise_fails_the_shared_draw_check(tmp_path):
    calls = WORKLOADS["release-numeric"].build(tmp_path, 5, TINY)
    (call,) = calls
    # Write a per-record-noise release where the ir-dp release is expected.
    argv = call.argv()
    argv[argv.index("ir-dp")] = "plain-laplace"
    assert microdp_main(argv) == 0

    log = CheckLog()
    check_outputs(log, calls)

    flagged = {c["check"] for c in log.items if not c["ok"]}
    shared = {c["check"] for c in log.items if "constant within each ir-dp cluster" in c["check"]}
    assert len(shared) == call.table.m
    assert shared <= flagged


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    code = run.main(["--workload", "release-numeric", "--seed", "1", "--seconds", "1"])

    assert code != 0
    assert capsys.readouterr().out == ""
