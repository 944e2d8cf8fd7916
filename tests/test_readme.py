from __future__ import annotations

import re
from pathlib import Path

import pytest

from microdp import load_schema

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def python_blocks(text: str) -> list[str]:
    return fenced_blocks(text, "python")


def test_library_example_runs(tmp_path, monkeypatch):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks, "README.md has no python block"
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["overall"] == pytest.approx(0.5945, abs=1e-4)


def test_schema_example_loads(tmp_path):
    text = README.read_text(encoding="utf-8")
    (schema_block,) = fenced_blocks(text, "ini")
    (taxonomy_block,) = fenced_blocks(text, "text")
    (tmp_path / "schema.ini").write_text(schema_block, encoding="utf-8")
    (tmp_path / "dom.tree").write_text(taxonomy_block, encoding="utf-8")
    schema = load_schema(tmp_path / "schema.ini")
    assert schema.names == ("age", "country")
    age = schema.attribute("age")
    assert (age.lower, age.upper) == (0.0, 120.0)
