"""The benchmark tracer patches microdp functions by name from outside
the package. Every name it patches must exist, or `perfbench/run.py
--trace 1` breaks when a function under src/ is renamed or moved."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
