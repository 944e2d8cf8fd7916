from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microdp import (
    METHODS,
    AttributeSchema,
    Dataset,
    MechanismConfig,
    PrivacyBudget,
    Schema,
    SweepSpec,
    Taxonomy,
    execute_release,
    load_dataset,
    load_schema,
    measure,
    noise_scale,
    run_release,
    run_sweep,
    write_dataset,
)
from microdp import data as data_module
from microdp import harness, mechanisms, microagg
from microdp.cli import main
from microdp.harness import SWEEP_HEADER, cell_seed
from microdp.mechanisms import perturb, release_plans

from conftest import make_big_numeric, released_table, traced_peak


TAXONOMY_TEXT = "world\nworld\teu\nworld\tus\neu\tfr\neu\tde\n"

SCHEMA_TEXT = """\
[age]
kind = numeric
lower = 0
upper = 100

[income]
kind = numeric
lower = 0
upper = 50000

[country]
kind = categorical
taxonomy = dom.tree
"""


@pytest.fixture
def corpus(tmp_path):
    """Schema, taxonomy and a small CSV on disk; returns the paths."""
    (tmp_path / "dom.tree").write_text(TAXONOMY_TEXT, encoding="utf-8")
    schema_path = tmp_path / "schema.ini"
    schema_path.write_text(SCHEMA_TEXT, encoding="utf-8")
    rng = np.random.default_rng(5)
    labels = ["fr", "de", "us", "eu"]
    lines = ["age,income,country"]
    for i in range(40):
        lines.append(
            f"{rng.uniform(0, 100):.4f},{rng.uniform(0, 50000):.2f},{labels[i % 4]}"
        )
    data_path = tmp_path / "people.csv"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data_path, schema_path


def load_corpus(corpus):
    data_path, schema_path = corpus
    schema = load_schema(schema_path)
    return load_dataset(data_path, schema)


class TestExecuteRelease:
    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace", "ir-only"])
    def test_all_methods_preserve_shape(self, corpus, method):
        data = load_corpus(corpus)
        cfg = MechanismConfig(method, 5, PrivacyBudget(1.0, data.m), seed=3)
        released = execute_release(cfg, data)
        assert released.n == data.n and released.m == data.m

    def test_numeric_only_methods(self, corpus):
        data = load_corpus(corpus).subset(["age", "income"])
        for method in ("mv-dp", "mv-only"):
            cfg = MechanismConfig(method, 5, PrivacyBudget(1.0, data.m), seed=3)
            assert execute_release(cfg, data).n == data.n


def written_params(cfg, data, tmp_path):
    """The `params` block of the `report.json` that `run_release` writes."""
    run_release(cfg, data, tmp_path / "release.csv")
    return json.loads((tmp_path / "release.csv.report.json").read_text(encoding="utf-8"))["params"]


class TestMeasure:
    def test_params_echo_configuration(self, corpus, tmp_path):
        data = load_corpus(corpus)
        budget = PrivacyBudget(2.0, data.m)
        cfg = MechanismConfig("ir-dp", 4, budget, seed=9)
        params = written_params(cfg, data, tmp_path)
        assert params["method"] == "ir-dp" and params["k"] == 4
        assert params["epsilon_total"] == 2.0 and params["m"] == 3
        age = next(a for a in params["attributes"] if a["name"] == "age")
        assert age["noise_scale"] == noise_scale("ir-dp", delta=100.0, budget=budget, k=4)
        country = next(a for a in params["attributes"] if a["name"] == "country")
        assert country["taxonomy"] == "dom.tree"

    @pytest.mark.parametrize("method", METHODS)
    def test_report_prints_the_scale_each_attribute_drew_at(self, corpus, tmp_path, monkeypatch, method):
        data = load_corpus(corpus)
        if method.startswith("mv-"):  # the multivariate baseline is numeric only
            data = data.subset(["age", "income"])
        drawn = []
        draw = mechanisms.laplace_from_uniform

        def spy(u, scale):
            drawn.append(scale)
            return draw(u, scale)

        monkeypatch.setattr(mechanisms, "laplace_from_uniform", spy)
        params = written_params(MechanismConfig(method, 4, PrivacyBudget(1.0, data.m), seed=9), data, tmp_path)
        printed = [a["noise_scale"] for a in params["attributes"] if a["kind"] == "numeric"]
        # age and income have different widths, so their scales differ: the
        # lists match attribute by attribute, in schema order.
        assert len(printed) == 2
        assert drawn == ([] if method in ("ir-only", "mv-only") else printed)
        if not drawn:
            assert printed == [0.0, 0.0]

    def test_noiseless_method_reports_zero_scale(self, corpus, tmp_path):
        data = load_corpus(corpus)
        cfg = MechanismConfig("ir-only", 4, PrivacyBudget(1.0, data.m), seed=0)
        params = written_params(cfg, data, tmp_path)
        assert all(a.get("noise_scale", 0.0) == 0.0 for a in params["attributes"])

    def test_ir_only_beats_mv_only_on_independent_attributes(self, corpus):
        # per-attribute ranking adapts to each column; the shared partition
        # must trade the columns off against each other
        data = load_corpus(corpus).subset(["age", "income"])
        budget = PrivacyBudget(1.0, 2)
        ir = measure(data, execute_release(MechanismConfig("ir-only", 8, budget, 0), data))
        mv = measure(data, execute_release(MechanismConfig("mv-only", 8, budget, 0), data))
        assert ir.re_dataset < mv.re_dataset


@pytest.fixture(scope="module")
def big_numeric_table():
    return make_big_numeric()


class TestBoundedMemory:
    """Traced peaks at 2e5 x 5; one 1.6 MB column is 1.53 MiB."""

    CFG = MechanismConfig("ir-dp", 10, PrivacyBudget(1.0, 5), seed=1)

    def test_release_holds_one_plan_at_a_time(self, big_numeric_table):
        # Plans are built, perturbed and spread over the records one attribute
        # at a time: 14.7 MiB. Holding every released plan first reads 24.4 MiB.
        released, peak = traced_peak(lambda: execute_release(self.CFG, big_numeric_table))
        assert released.n == big_numeric_table.n
        assert peak < 18 * 2**20

    def test_measure_scores_in_two_temporaries_per_column(self, big_numeric_table):
        # Relative error works in place in two n-sized arrays: 3.1 MiB, against
        # 4.6 MiB with three.
        released = execute_release(self.CFG, big_numeric_table)
        report, peak = traced_peak(lambda: measure(big_numeric_table, released))
        assert report.re_dataset > 0.0
        assert peak < 3.8 * 2**20

    def test_measure_scores_released_plans_in_two_temporaries_per_column(self, big_numeric_table):
        # Relative error, scored last, works in the spread's own buffer beside
        # the floors: 3.1 MiB, against 4.6 MiB with an error array of its own.
        data = big_numeric_table
        released = list(perturb(data, release_plans(data, "ir-dp", 10), self.CFG))
        report, peak = traced_peak(lambda: measure(data, released))
        assert report == measure(data, released_table(data, released))
        assert peak < 3.8 * 2**20

    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace"])
    def test_run_release_holds_no_table(self, big_numeric_table, tmp_path, method):
        # The released plans, less their rank order, take the table's place,
        # under the bound of `execute_release`, which builds the table: 14.0
        # MiB for ir-dp, whose clusters' cells are made once. A cluster per
        # record (plain-laplace) is formatted a chunk at a time: 13.7 MiB,
        # where a table of every cluster's cells read 24.7 MiB.
        cfg = MechanismConfig(method, 10, self.CFG.budget, seed=1)
        (path, report), peak = traced_peak(
            lambda: run_release(cfg, big_numeric_table, tmp_path / "big.csv")
        )
        assert path.stat().st_size > 0 and report.re_dataset > 0.0
        assert peak < 18 * 2**20


class TestRunRelease:
    def test_writes_release_and_report(self, corpus, tmp_path):
        data = load_corpus(corpus)
        cfg = MechanismConfig("ir-dp", 5, PrivacyBudget(1.0, data.m), seed=11)
        out = tmp_path / "release.csv"
        out_path, report = run_release(cfg, data, out)
        assert out_path == out and out.exists()
        payload = json.loads((tmp_path / "release.csv.report.json").read_text())
        assert payload["params"]["seed"] == 11
        assert payload["re_dataset"] == report.re_dataset
        reloaded = load_dataset(out, data.schema)
        assert reloaded.n == data.n

    def test_released_numeric_values_are_rounded_to_written_precision(self, corpus, tmp_path):
        data = load_corpus(corpus)
        cfg = MechanismConfig("ir-only", 5, PrivacyBudget(1.0, data.m), seed=0)
        out = tmp_path / "bare.csv"
        run_release(cfg, data, out)
        reloaded = load_dataset(out, data.schema)
        direct = execute_release(cfg, data)
        assert np.allclose(reloaded.column("age"), direct.column("age"), atol=5e-7)


# Labels that `csv` must quote, an empty one (written `""` when it is its
# row's only cell), and plain ones, under a root that sorts among them.
QUOTING_TAXONOMY = Taxonomy("m", {
    "": "m", "a,b": "m", 'say "hi"': "a,b", " lead": "m", "trail ": " lead", "two\nlines": "",
    "x": "m", "y": "x", "\u00e9t\u00e9": "y",
})
# Released values that reach every path of the writer's digit kernel:
# ±0.0, negatives that round to zero, half-micro ties, six-decimal values
# and values of 1e9 and more, which go through the `%.6f` text path.
SPECIAL_VALUES = [
    0.0, -0.0, -4e-7, -5e-7, 5e-7, 2.5e-6, 0.0000125, -1.0000005, 12.3456785, 999999999.9999995,
    1e9, -1e9, 123456789012.5, -2.5e9, 1e-300,
]


@st.composite
def release_cases(draw):
    """A table, a release config and the writer's chunk size: every method, clamp or not."""
    method = draw(st.sampled_from(METHODS))
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, n))
    numeric = draw(st.integers(0 if not method.startswith("mv-") else 1, 3))
    labels = 0 if method.startswith("mv-") else draw(st.integers(0 if numeric else 1, 2))
    domains = [(-3e9, 3e11), (-1.0, 1.0), (0.0, 1000.0)]
    attrs, columns = [], []
    for j in range(numeric):
        lower, upper = domains[j]
        value = st.one_of(
            st.sampled_from([v for v in SPECIAL_VALUES if lower <= v <= upper]),
            st.floats(lower, upper, allow_nan=False),
            st.integers(-10**6, 10**6).map(lambda i: (2 * i + 1) * 5e-7)
            .filter(lambda v: lower <= v <= upper),
        )
        attrs.append(AttributeSchema(f"v{j}", "numeric", lower, upper))
        columns.append(np.array(draw(st.lists(value, min_size=n, max_size=n))))
    for j in range(labels):
        attrs.append(AttributeSchema(f"c{j}", "categorical", taxonomy_ref="q"))
        label = st.sampled_from(QUOTING_TAXONOMY.labels)
        columns.append(tuple(draw(st.lists(label, min_size=n, max_size=n))))
    data = Dataset(Schema(tuple(attrs), {"q": QUOTING_TAXONOMY}), columns)
    epsilon = draw(st.sampled_from([0.01, 1.0, 1e6]))
    cfg = MechanismConfig(method, k, PrivacyBudget(epsilon, data.m), draw(st.integers(0, 2**32)),
                          clamp=draw(st.booleans()))
    return data, cfg, draw(st.sampled_from([2, 3, 7, 2048]))


class TestRunReleaseBytes:
    @given(release_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_the_written_table_and_its_measure(self, case):
        # `run_release` scores the plans and writes per-cluster columns; its
        # CSV and report are those of the per-record table, byte for byte.
        data, cfg, chunk_rows = case
        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(data_module, "_CHUNK_ROWS", chunk_rows):
            out = Path(directory) / "release.csv"
            _, report = run_release(cfg, data, out)
            table = execute_release(cfg, data)
            write_dataset(table, Path(directory) / "table.csv")
            assert out.read_bytes() == (Path(directory) / "table.csv").read_bytes()
            expected = measure(data, table)
            assert report == expected
            payload = {**expected.to_json_dict(), "params": harness._params_record(cfg, data)}
            report_text = (Path(directory) / "release.csv.report.json").read_text(encoding="utf-8")
            assert report_text == json.dumps(payload, indent=2) + "\n"

    def test_builds_no_table(self, corpus, tmp_path, monkeypatch):
        data = load_corpus(corpus)
        built = []
        init = Dataset.__init__
        monkeypatch.setattr(Dataset, "__init__", lambda table, *args: built.append(1) or init(table, *args))
        for method in ("ir-dp", "plain-laplace"):
            cfg = MechanismConfig(method, 4, PrivacyBudget(1.0, data.m), seed=2)
            run_release(cfg, data, tmp_path / f"{method}.csv")
        assert built == []

    def test_releases_through_execute_release(self, corpus, tmp_path, monkeypatch):
        # The release is `execute_release`'s, looked up in `harness`, so a
        # wrapper there (the benchmark tracer's span) sees every release.
        data = load_corpus(corpus)
        seen = []
        release = harness.execute_release

        def spy(cfg, original, **kwargs):
            seen.append((cfg, original, kwargs))
            return release(cfg, original, **kwargs)

        monkeypatch.setattr(harness, "execute_release", spy)
        cfg = MechanismConfig("ir-dp", 4, PrivacyBudget(1.0, data.m), seed=2)
        run_release(cfg, data, tmp_path / "release.csv")
        assert seen == [(cfg, data, {"table": False})]


class TestCellSeed:
    def test_frozen_reference_value(self):
        assert cell_seed(0, "ir-dp", 5, 1.0, ("age",), 0) == 7049612654879708783

    def test_coordinates_change_the_seed(self):
        base = cell_seed(0, "ir-dp", 5, 1.0, ("age",), 0)
        assert cell_seed(0, "ir-dp", 5, 1.0, ("age",), 1) != base
        assert cell_seed(0, "mv-dp", 5, 1.0, ("age",), 0) != base
        assert cell_seed(0, "ir-dp", 5, 2.0, ("age",), 0) != base
        assert cell_seed(1, "ir-dp", 5, 1.0, ("age",), 0) != base

    def test_fits_in_unsigned_64_bits(self):
        seed = cell_seed(3, "plain-laplace", 2, 0.1, ("age", "income"), 7)
        assert 0 <= seed < 2 ** 64


class TestRunSweep:
    def make_spec(self, corpus, tmp_path, **overrides):
        data_path, schema_path = corpus
        defaults = dict(
            data_path=str(data_path),
            schema_path=str(schema_path),
            methods=("ir-dp", "plain-laplace"),
            k_values=(2, 5),
            epsilon_values=(1.0,),
            runs=2,
            master_seed=7,
            attribute_subsets=(("age",), ("age", "income")),
            out_path=str(tmp_path / "sweep.csv"),
        )
        defaults.update(overrides)
        return SweepSpec(**defaults)

    def test_grid_is_complete(self, corpus, tmp_path):
        spec = self.make_spec(corpus, tmp_path)
        results = run_sweep(spec)
        assert len(results) == 2 * 2 * 1 * 2
        assert all(cell.status == "ok" for cell in results)
        with open(spec.out_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(SWEEP_HEADER)
        assert len(rows) == 1 + len(results)
        assert all(row[6] == "2" for row in rows[1:])

    def test_failed_cell_is_flagged_not_fatal(self, corpus, tmp_path):
        spec = self.make_spec(
            corpus, tmp_path,
            methods=("mv-dp",),
            attribute_subsets=(("age",), ("country",)),
        )
        results = run_sweep(spec)
        by_subset = {cell.subset: cell for cell in results}
        assert by_subset[("age",)].status == "ok"
        failed = by_subset[("country",)]
        assert failed.status == "failed"
        assert "numeric" in failed.error
        with open(spec.out_path, encoding="utf-8") as handle:
            rows = [line.rstrip("\n").split(",") for line in handle][1:]
        failed_row = next(row for row in rows if row[:4] == ["mv-dp", "2", "1.0", "1"] and row[4] == "")
        assert failed_row[4:] == ["", "", "0"]

    def test_rerun_is_byte_identical(self, corpus, tmp_path):
        first = self.make_spec(corpus, tmp_path, out_path=str(tmp_path / "a.csv"))
        second = self.make_spec(corpus, tmp_path, out_path=str(tmp_path / "b.csv"))
        run_sweep(first)
        run_sweep(second)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (
            (tmp_path / "a.csv.runs.json").read_bytes()
            == (tmp_path / "b.csv.runs.json").read_bytes()
        )

    def test_sidecar_carries_per_run_values(self, corpus, tmp_path):
        spec = self.make_spec(corpus, tmp_path)
        run_sweep(spec)
        payload = json.loads((tmp_path / "sweep.csv.runs.json").read_text())
        assert payload["master_seed"] == 7 and payload["runs_per_cell"] == 2
        cell = payload["cells"][0]
        assert len(cell["runs"]) == 2
        run = cell["runs"][0]
        assert {"run", "seed", "re", "jsd", "re_per_attribute"} <= set(run)

    @staticmethod
    def independent_cells(spec, full):
        """(status, error, runs) of every cell, from a plain loop of releases."""
        cells = []
        for method, k, epsilon, subset in itertools.product(
            spec.methods, spec.k_values, spec.epsilon_values, spec.attribute_subsets
        ):
            runs = []
            try:
                data = full.subset(subset)
                budget = PrivacyBudget(epsilon, len(subset))
                for run_index in range(spec.runs):
                    seed = cell_seed(spec.master_seed, method, k, epsilon, subset, run_index)
                    cfg = MechanismConfig(method, k, budget, seed, spec.clamp)
                    report = measure(data, execute_release(cfg, data))
                    runs.append({
                        "run": run_index,
                        "seed": seed,
                        "re": report.re_dataset,
                        "jsd": report.jsd_dataset,
                        "re_per_attribute": dict(report.re_per_attribute),
                        "jsd_per_attribute": dict(report.jsd_per_attribute),
                        "variance_delta_per_attribute": dict(report.variance_delta_per_attribute),
                    })
                cells.append(("ok", None, runs))
            except Exception as exc:
                cells.append(("failed", f"{type(exc).__name__}: {exc}", []))
        return cells

    def test_sweep_equals_independent_releases(self, corpus, tmp_path):
        # Plans and metric references are shared across the epsilons and runs
        # of a cell; every cell must still equal a release built from scratch.
        # k=50 > n fails at plan time, and mv-* fails on the categorical column.
        spec = self.make_spec(
            corpus, tmp_path, methods=METHODS, k_values=(2, 50), epsilon_values=(0.5, 2.0),
            attribute_subsets=(("age",), ("age", "income"), ("country", "age")),
        )
        results = run_sweep(spec)
        expected = self.independent_cells(spec, load_corpus(corpus))
        assert [(cell.status, cell.error, cell.runs) for cell in results] == expected
        errors = {cell.error for cell in results if cell.status == "failed"}
        assert any("k must be in [1, n]" in error for error in errors)
        assert any("numeric data only" in error for error in errors)

    @pytest.mark.parametrize("clamp", [True, False], ids=["clamp", "no-clamp"])
    def test_unit_clusters_equal_independent_releases(self, corpus, tmp_path, clamp):
        # Every cluster holds one record: ir-dp at k=1 in rank order, whose
        # assignments are a permutation, and plain-laplace, whose plans are the
        # identity. Their values bin unweighted; each record must still get its
        # own cluster's value, bit for bit.
        full = load_corpus(corpus)
        for subset in (("age", "income"), ("country", "age")):
            data = full.subset(subset)
            ranked, identity = (
                next(iter(release_plans(data, method, 1))) for method in ("ir-dp", "plain-laplace")
            )
            assert ranked.n_clusters == identity.n_clusters == data.n
            assert sorted(ranked.assignments) == list(range(data.n))
            assert not np.array_equal(ranked.assignments, np.arange(data.n))
            assert np.array_equal(identity.assignments, np.arange(data.n))
        spec = self.make_spec(
            corpus, tmp_path, methods=("ir-dp", "plain-laplace"), k_values=(1,),
            epsilon_values=(0.5, 2.0), runs=3, clamp=clamp,
            attribute_subsets=(("age", "income"), ("country", "age")),
        )
        results = run_sweep(spec)
        assert all(cell.status == "ok" for cell in results)
        expected = self.independent_cells(spec, full)
        # repr tells -0.0 from 0.0, which == does not.
        assert repr([(cell.status, cell.error, cell.runs) for cell in results]) == repr(expected)

    def test_failed_cells_report_the_first_error_of_a_fresh_release(self, corpus, tmp_path):
        # A bad budget or configuration is reported before a plan error, and
        # a shared plan error is reported in every cell that shares the plan.
        spec = self.make_spec(
            corpus, tmp_path, methods=("ir-dp", "bogus", "mv-dp"), k_values=(0, 3, 50),
            epsilon_values=(-1.0, 1.0, 4.0), attribute_subsets=(("age",), ("nope",), ("country",)),
        )
        results = run_sweep(spec)
        expected = self.independent_cells(spec, load_corpus(corpus))
        assert [(cell.status, cell.error, cell.runs) for cell in results] == expected
        assert len({cell.error for cell in results}) >= 6

    def test_plans_are_built_once_per_method_k_and_subset(self, corpus, tmp_path, monkeypatch):
        built = {"individual_ranking": [], "multivariate_baseline": []}
        for name, plans in built.items():
            original = getattr(microagg, name)

            def counted(*args, _original=original, _plans=plans, **kwargs):
                plan = _original(*args, **kwargs)
                _plans.append(plan)
                return plan

            monkeypatch.setattr(microagg, name, counted)
        k_values, subsets = (2, 5), (("age",), ("age", "income"))
        spec = self.make_spec(
            corpus, tmp_path, methods=("ir-dp", "mv-dp"), k_values=k_values,
            epsilon_values=(0.5, 1.0, 2.0), runs=3, attribute_subsets=subsets,
        )
        assert all(cell.status == "ok" for cell in run_sweep(spec))
        attributes = sum(len(subset) for subset in subsets)
        assert len(built["individual_ranking"]) == len(k_values) * attributes
        assert len(built["multivariate_baseline"]) == len(k_values) * len(subsets)
        for plan in built["individual_ranking"] + built["multivariate_baseline"]:
            assert not plan.assignments.flags.writeable
            assert not plan.centroids.flags.writeable

    @pytest.mark.parametrize("value, shown", [(-3.0, "-3.0"), (float("nan"), "nan")])
    def test_out_of_domain_values_fail_the_cell(self, corpus, tmp_path, monkeypatch, value, shown):
        # The loader rejects such values, so hand the sweep an in-memory table.
        full = load_corpus(corpus)
        age = np.array(full.column("age"))
        age[7] = value
        bad = Dataset(full.schema, [age, *full.columns[1:]])
        monkeypatch.setattr(harness, "load_dataset", lambda *args: bad)
        spec = self.make_spec(corpus, tmp_path, methods=METHODS, attribute_subsets=(("age",),))
        message = f"DataError: record 7, column 'age': value {shown} outside [0.0, 100.0]"
        assert [(cell.status, cell.error) for cell in run_sweep(spec)] == [("failed", message)] * 10

    def test_unknown_labels_fail_the_cell(self, corpus, tmp_path, monkeypatch):
        # The loader rejects such labels, so hand the sweep an in-memory table.
        full = load_corpus(corpus)
        country = list(full.column("country"))
        country[7] = "zz"
        bad = Dataset(full.schema, [*full.columns[:2], country])
        monkeypatch.setattr(harness, "load_dataset", lambda *args: bad)
        spec = self.make_spec(corpus, tmp_path, methods=METHODS, attribute_subsets=(("country",),))
        message = "DataError: record 7, column 'country': label 'zz' not in taxonomy"
        assert [(cell.status, cell.error) for cell in run_sweep(spec)] == [("failed", message)] * 10

    def test_spec_validation(self, corpus, tmp_path):
        with pytest.raises(ValueError, match="method"):
            self.make_spec(corpus, tmp_path, methods=())
        with pytest.raises(ValueError, match="runs"):
            self.make_spec(corpus, tmp_path, runs=0)


class TestCli:
    def test_release_roundtrip(self, corpus, tmp_path, capsys):
        data_path, schema_path = corpus
        out = tmp_path / "out.csv"
        code = main([
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "ir-dp", "--k", "5", "--epsilon", "2.0",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists() and (tmp_path / "out.csv.report.json").exists()
        assert "wrote" in capsys.readouterr().out

    def test_release_is_deterministic(self, corpus, tmp_path):
        data_path, schema_path = corpus
        argv = lambda name: [
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "ir-dp", "--k", "3", "--epsilon", "1.0",
            "--seed", "42", "--out", str(tmp_path / name),
        ]
        assert main(argv("first.csv")) == 0
        assert main(argv("second.csv")) == 0
        assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()

    # sha256 of each released CSV for k = 4, epsilon = 2.0, seed = 13. The
    # reproducibility contract: a fixed (data, method, k, budget, seed,
    # clamp) releases the same bytes in every version. Only the CSVs are
    # pinned; the report's floats may differ in the last bit across numpy
    # versions, whose summation order differs.
    GOLDEN_RELEASES = {
        "ir-dp": "3d0ba94c41ddc70a1a5826a1332b1c310909902761384845d7937f4d3fc0f24b",
        "plain-laplace": "cede4cb89176efc4cf0f6175b8c30880ff559873d16cda2907f4bd96b90b491f",
        "ir-only": "d9002b1ba78be323f134e6463d4759811a3a6043d38a46fc7099beaee56f95bf",
        "mv-dp": "967b117330125bb0e6dcb9725e4a07f36097e037ebf55af1ade4c7278f178c51",
        "mv-only": "d3f7782b7dbf644f6514040b76df5117017e6ffa80e14ef5a11353fb1c6d1015",
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_release_bytes_are_pinned(self, corpus, tmp_path, method):
        data_path, schema_path = corpus
        out = tmp_path / f"{method}.csv"
        argv = [
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", method, "--k", "4", "--epsilon", "2.0",
            "--seed", "13", "--out", str(out),
        ]
        if method.startswith("mv-"):
            argv += ["--attrs", "age,income"]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_RELEASES[method]

    # 43 Zipf-drawn leaves of a tree three levels below its root, released at
    # k = 4: the last cluster holds 7 labels, and clusters that straddle two
    # branches span subtrees up to the root, which the 5-node corpus above
    # never makes. sha256 of each CSV at epsilon = 1.0, seed = 13.
    ZIPF_TAXONOMY = (
        "world\n"
        "world\teurope\nworld\tasia\nworld\tamericas\n"
        "europe\twest\neurope\teast\nasia\teastasia\nasia\tsouthasia\n"
        "americas\tnorth\namericas\tsouth\n"
        "west\tfr\nwest\tde\nwest\tit\nwest\tes\neast\tpl\neast\tcz\n"
        "eastasia\tjp\neastasia\tcn\neastasia\tkr\nsouthasia\tin\n"
        "north\tus\nnorth\tca\nnorth\tmx\nsouth\tbr\n"
    )
    ZIPF_LABELS = (
        "pl fr fr in es fr cz fr de de br kr fr fr de fr de ca in it it ca "
        "es ca mx fr fr jp fr de fr it fr de it fr de it fr de de fr es"
    )
    GOLDEN_ZIPF_RELEASES = {
        "ir-dp": "21469039fbbbc1018900d03e55effbdeb2b1fb48225b501997860bf961b57b0f",
        "ir-only": "658419961fd5cdcdf1c4665220a90f0fc1e5a7534eeb70deb73b87502a0f5392",
        "plain-laplace": "c575b030937e86aebcfc1c98acb323c992b27f230184dd5cf15bbd6ea39cb3d4",
    }

    @pytest.mark.parametrize("method", sorted(GOLDEN_ZIPF_RELEASES))
    def test_zipf_label_release_bytes_are_pinned(self, tmp_path, method):
        (tmp_path / "geo.tree").write_text(self.ZIPF_TAXONOMY, encoding="utf-8")
        schema_path = tmp_path / "geo.ini"
        schema_path.write_text("[place]\nkind = categorical\ntaxonomy = geo.tree\n", encoding="utf-8")
        data_path = tmp_path / "geo.csv"
        data_path.write_text("place\n" + "\n".join(self.ZIPF_LABELS.split()) + "\n", encoding="utf-8")
        out = tmp_path / f"{method}.csv"
        assert main([
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", method, "--k", "4", "--epsilon", "1.0", "--seed", "13", "--out", str(out),
        ]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GOLDEN_ZIPF_RELEASES[method]

    # sha256 of `json.dumps(params, indent=2)` of each pinned release's report,
    # whose keys are the metric figures, then `params`. The params hold exact
    # formula values only, so unlike the figures they do not depend on
    # numpy's float kernels.
    REPORT_KEYS = [
        "re_per_attribute", "re_dataset", "jsd_per_attribute", "jsd_dataset",
        "variance_delta_per_attribute", "params",
    ]
    GOLDEN_PARAMS = {
        "ir-dp": "81ad02eabf95e8019f2b0f46867152b2627886c9b8ad834a845cdfd31dfcfe97",
        "plain-laplace": "680ec814274e9d0798bab4171c8b137a296dbbfa1a32ded8147449d902c92692",
        "ir-only": "d4b800a1e8313e6ddf526f9fceb31f923a59fb4d8af64d3e977fb6b7444a3edb",
        "mv-dp": "1c56a1cc8e73445a58cf8f3354af1a9d80eff873dd4671d806e886091ae34b0d",
        "mv-only": "1dc045d7137cd011cedbd6c66f979ed106709fd15d556fe9fc275fa993dd0ad7",
    }

    @pytest.mark.parametrize("method", METHODS)
    def test_report_params_are_pinned(self, corpus, tmp_path, method):
        data_path, schema_path = corpus
        out = tmp_path / f"{method}.csv"
        argv = [
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", method, "--k", "4", "--epsilon", "2.0",
            "--seed", "13", "--out", str(out),
        ]
        if method.startswith("mv-"):
            argv += ["--attrs", "age,income"]
        assert main(argv) == 0
        payload = json.loads((tmp_path / f"{method}.csv.report.json").read_text(encoding="utf-8"))
        assert list(payload) == self.REPORT_KEYS
        params = json.dumps(payload["params"], indent=2).encode("utf-8")
        assert hashlib.sha256(params).hexdigest() == self.GOLDEN_PARAMS[method]

    # sha256 of a sweep's CSV and sidecar: every method, k in {3, 7} (neither
    # divides n = 40), two epsilons, two runs, master seed 13, and a failing
    # mv-* cell on the subset with the categorical column. The sidecar's
    # `data` and `schema` paths are replaced by the file names first. Unlike
    # a release, these bytes hold metric floats, whose last bit depends on
    # numpy's float kernels, and numpy 2.x takes another kernel path on
    # AVX-512 CPUs. Each path has its digest: AVX-512 first, then AVX2 or
    # less (numpy 2.4, the second taken with NPY_DISABLE_CPU_FEATURES).
    GOLDEN_SWEEP = {
        "csv": ("958fd218b6d2c51331da0c30d8040d5ef19d1b03e844613069876ebb3f46f61a",),
        "runs.json": (
            "46a2ea7f485097bcc63d7e807ad8e2941f151834f705691f11dda43458b318fc",
            "39cc9cd9158db17a7bb6df8a6403d522d1627b0913ff1e132e0158072627a145",
        ),
    }

    def test_sweep_bytes_are_pinned(self, corpus, tmp_path):
        data_path, schema_path = corpus
        out = tmp_path / "sweep.csv"
        argv = [
            "sweep", "--data", str(data_path), "--schema", str(schema_path),
            "--method", ",".join(METHODS), "--k", "3,7", "--epsilon", "0.5,2.0",
            "--runs", "2", "--seed", "13", "--attrs", "age,income", "--attrs", "country,age",
            "--out", str(out),
        ]
        assert main(argv) == 1
        sidecar = (tmp_path / "sweep.csv.runs.json").read_text(encoding="utf-8")
        for field, path in (("data", data_path), ("schema", schema_path)):
            placed = f'"{field}": {json.dumps(str(path))}'
            assert placed in sidecar
            sidecar = sidecar.replace(placed, f'"{field}": "{path.name}"', 1)
        assert hashlib.sha256(out.read_bytes()).hexdigest() in self.GOLDEN_SWEEP["csv"]
        digest = hashlib.sha256(sidecar.encode("utf-8")).hexdigest()
        assert digest in self.GOLDEN_SWEEP["runs.json"]

    def test_release_attribute_subset(self, corpus, tmp_path):
        data_path, schema_path = corpus
        out = tmp_path / "subset.csv"
        code = main([
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "plain-laplace", "--epsilon", "1.0",
            "--attrs", "age,income", "--out", str(out),
        ])
        assert code == 0
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "age,income"

    def test_release_k_larger_than_n_fails_cleanly(self, corpus, tmp_path, capsys):
        data_path, schema_path = corpus
        code = main([
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "ir-dp", "--k", "1000", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_release_rejects_an_epsilon_per_attribute_that_underflows(self, corpus, tmp_path, capsys):
        data_path, schema_path = corpus
        out = tmp_path / "x.csv"
        code = main([
            "release", "--data", str(data_path), "--schema", str(schema_path), "--attrs", "age,income",
            "--method", "ir-dp", "--k", "4", "--epsilon", "5e-324", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: epsilon must be positive and finite, got 0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["ir-dp", "plain-laplace", "mv-dp"])
    def test_release_rejects_an_epsilon_whose_noise_scale_overflows(self, tmp_path, capsys, method):
        data_path, schema_path, out = tmp_path / "d.csv", tmp_path / "d.ini", tmp_path / "x.csv"
        data_path.write_text("a,b\n1,5\n2,6\n3,7\n4,8\n", encoding="utf-8")
        schema_path.write_text(
            "[a]\nkind = numeric\nlower = 0\nupper = 10\n\n"
            "[b]\nkind = numeric\nlower = 0\nupper = 10\n",
            encoding="utf-8",
        )
        code = main([
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", method, "--k", "2", "--epsilon", "1e-308", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "error: noise scale overflows: epsilon 1e-308 is too small\n"
        assert not out.exists()

    # Bounds are never taken from the data, so a numeric section without
    # them, or with a `bound_factor` key in their place, must stop the release.
    @pytest.mark.parametrize("income, message", [
        ("", "attribute 'income': numeric attributes need both bounds"),
        ("bound_factor = 1.5\n", "attribute 'income': unknown keys ['bound_factor']"),
    ], ids=["no-bounds", "bound-factor"])
    def test_release_refuses_schema_without_bounds(self, corpus, tmp_path, capsys, income, message):
        data_path, _ = corpus
        schema_path = tmp_path / "unbounded.ini"
        schema_path.write_text(
            SCHEMA_TEXT.replace("lower = 0\nupper = 50000\n", income), encoding="utf-8"
        )
        out = tmp_path / "out.csv"
        code = main([
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "ir-dp", "--k", "4", "--out", str(out),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.csv.report.json").exists()

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "release" in capsys.readouterr().out

    def test_the_subcommands_are_release_and_sweep(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify"])
        assert exit_.value.code == 2
        assert "invalid choice: 'verify'" in capsys.readouterr().err

    def test_sweep_exit_codes(self, corpus, tmp_path):
        data_path, schema_path = corpus
        ok = main([
            "sweep", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "ir-dp", "--k", "2,5", "--epsilon", "1.0",
            "--runs", "2", "--attrs", "age", "--out", str(tmp_path / "s.csv"),
        ])
        assert ok == 0
        assert (tmp_path / "s.csv.runs.json").exists()
        failing = main([
            "sweep", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "mv-dp", "--k", "2", "--epsilon", "1.0",
            "--runs", "1", "--attrs", "country", "--out", str(tmp_path / "f.csv"),
        ])
        assert failing == 1

    def test_no_clamp_flag_reaches_mechanism(self, corpus, tmp_path):
        data_path, schema_path = corpus
        argv = [
            "release", "--data", str(data_path), "--schema", str(schema_path),
            "--method", "plain-laplace", "--epsilon", "0.001",
            "--attrs", "age", "--seed", "1", "--out", str(tmp_path / "wild.csv"),
            "--no-clamp",
        ]
        assert main(argv) == 0
        body = (tmp_path / "wild.csv").read_text(encoding="utf-8").splitlines()[1:]
        values = [float(v) for v in body]
        assert min(values) < 0.0 or max(values) > 100.0

    def test_console_entry_point(self, corpus, tmp_path):
        data_path, schema_path = corpus
        proc = subprocess.run(
            [
                sys.executable, "-m", "microdp.cli", "release",
                "--data", str(data_path), "--schema", str(schema_path),
                "--method", "ir-only", "--k", "4", "--out", str(tmp_path / "cli.csv"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "cli.csv").exists()


# The AVX-512 feature groups whose kernels numpy 2.x picks where the CPU has them.
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


class TestOpenReproducibilityWitness:
    """Pin of an open reproducibility finding, as the code stands.

    Release bytes depend on numpy's CPU kernel path: `np.log1p` (the
    Laplace draws) gives other last bits with and without AVX-512, and on
    a domain as wide as [0, 1e10] one ULP shows in the `%.6f` text. The
    change that makes the draws independent of the kernel path updates
    this test to assert equal bytes.
    """

    @pytest.mark.skipif(
        not all(cpu_features().get(name, False) for name in AVX512),
        reason=f"numpy does not report all of {', '.join(AVX512)} on this CPU, "
        "and it refuses to disable a feature the CPU lacks",
    )
    @pytest.mark.parametrize(("method", "k"), [("ir-dp", 10), ("plain-laplace", 1)])
    def test_release_bytes_depend_on_avx512(self, tmp_path, method, k):
        rng = np.random.default_rng(7)
        np.savetxt(tmp_path / "wide.csv", rng.integers(0, 10**10, size=(20_000, 2), endpoint=True),
                   fmt="%d", delimiter=",", header="a,b", comments="")
        (tmp_path / "wide.ini").write_text(
            "".join(f"[{name}]\nkind = numeric\nlower = 0\nupper = 10000000000\n\n" for name in "ab"),
            encoding="utf-8",
        )
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        outs = []
        for disabled in (None, " ".join(AVX512)):
            out = tmp_path / f"{method}-{'without' if disabled else 'with'}-avx512.csv"
            proc = subprocess.run(
                [
                    sys.executable, "-m", "microdp.cli", "release",
                    "--data", str(tmp_path / "wide.csv"), "--schema", str(tmp_path / "wide.ini"),
                    "--method", method, "--k", str(k), "--epsilon", "1", "--seed", "7", "--out", str(out),
                ],
                env=env if disabled is None else dict(env, NPY_DISABLE_CPU_FEATURES=disabled),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        with_avx512, without = (out.read_bytes() for out in outs)
        assert with_avx512 != without
        # Only last digits differ: one ULP near 1e10 is about 2e-6.
        np.testing.assert_allclose(*(np.loadtxt(out, delimiter=",", skiprows=1) for out in outs),
                                   rtol=0, atol=1e-5)
