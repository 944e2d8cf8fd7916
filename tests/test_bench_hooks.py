"""The benchmark uses microdp from outside the package: the tracer
patches functions by name, and the output checks import public names
and read plan attributes. Every one must exist, or `perfbench/run.py`
breaks when a name under src/ is renamed, moved or removed."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from microdp import Taxonomy, individual_ranking

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["SPANNED", "COUNTED"])
def test_traced_names_resolve(table):
    sites = getattr(_load_spans(), table)
    assert sites
    missing = []
    for name, pairs in sites.items():
        for module, attr in pairs:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{name}: {module}.{attr}")
    assert not missing, missing


def test_imported_names_resolve():
    imported = []  # (file, module, name); name is None for `import microdp.x`
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "microdp":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [
                    (path.name, alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "microdp"
                ]
    assert any(name for *_, name in imported)
    missing = []
    for file, module, name in imported:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            missing.append(f"{file}: {module}.{name}")
    assert not missing, missing


@pytest.mark.parametrize("categorical", [False, True], ids=["numeric", "categorical"])
def test_plan_attributes_the_checks_read_exist(categorical):
    if categorical:
        taxonomy = Taxonomy("r", {"a": "r", "b": "r"})
        plan = individual_ranking(["a", "b", "r", "a", "b"], 2, taxonomy=taxonomy)
    else:
        plan = individual_ranking(np.arange(5.0), 2)
    assert plan.n_clusters == 2
    assert plan.sizes.tolist() == [2, 3]
    assert sorted(plan.sorted_indices.tolist()) == list(range(5))
