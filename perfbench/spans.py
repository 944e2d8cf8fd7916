"""Span tracer that wraps microdp's public functions from outside the package.

Nothing under src/ knows about tracing. `Tracer.install` replaces each
traced function under the names its callers look it up by (for example
`microdp.harness.execute_release`, which `run_release` and the sweep call
through the harness module's globals) and `Tracer.uninstall` puts the
originals back. Spans stay in memory until `write_spans`.

Each span has a name, start, end, parent span and job id (the index of
the CLI call it ran under). A function's self time is its span time minus
the time its direct child spans cover. The two hottest taxonomy
functions, `marginality` and `Taxonomy.semantic_distance`, are counted
but not timed: a span per call would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "harness", "data", "microagg", "mechanisms", "taxonomy", "metrics")

# Span name -> the (module, attribute) pairs its callers look it up by.
SPANNED = {
    "cli.main": [("microdp.cli", "main")],
    "harness.run_release": [("microdp.cli", "run_release")],
    "harness.run_sweep": [("microdp.cli", "run_sweep")],
    "harness.execute_release": [("microdp.harness", "execute_release")],
    "harness.measure": [("microdp.harness", "measure")],
    "data.load_schema": [("microdp.cli", "load_schema"), ("microdp.harness", "load_schema")],
    "data.load_dataset": [("microdp.cli", "load_dataset"), ("microdp.harness", "load_dataset")],
    "data.write_dataset": [("microdp.harness", "write_dataset")],
    "taxonomy.load_taxonomy": [("microdp.data", "load_taxonomy")],
    "microagg.individual_ranking": [("microdp.microagg", "individual_ranking")],
    "microagg.categorical_order_key": [("microdp.microagg", "categorical_order_key")],
    "microagg.multivariate_baseline": [("microdp.microagg", "multivariate_baseline")],
    "mechanisms.ir_dp_release": [("microdp.harness", "ir_dp_release")],
    "mechanisms.plain_laplace_release": [("microdp.harness", "plain_laplace_release")],
    "mechanisms.mv_dp_release": [("microdp.harness", "mv_dp_release")],
    "mechanisms.exponential_mechanism_centroid": [
        ("microdp.mechanisms", "exponential_mechanism_centroid"),
    ],
    "mechanisms.laplace_from_uniform": [("microdp.mechanisms", "laplace_from_uniform")],
    "taxonomy.marginality_table": [("microdp.microagg", "marginality_table")],
    "taxonomy.marginality_centroid": [("microdp.microagg", "marginality_centroid")],
    "metrics.relative_error": [("microdp.harness", "relative_error")],
    "metrics.jsd": [("microdp.harness", "jsd")],
    "metrics.variance_delta": [("microdp.harness", "variance_delta")],
}

# Counted only. Attribute paths with a dot name a class attribute.
COUNTED = {
    "taxonomy.marginality": [("microdp.mechanisms", "marginality"), ("microdp.taxonomy", "marginality")],
    "taxonomy.semantic_distance": [("microdp.taxonomy", "Taxonomy.semantic_distance")],
}

MB = 1024.0 * 1024.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process image, from VmHWM.

    `ru_maxrss` is not used: Linux carries it across exec, so a child
    would report its parent's peak whenever that is the larger one.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _file_mb(path) -> float:
    return Path(path).stat().st_size / MB if isinstance(path, (str, Path)) else 0.0


def _column_key(column) -> int:
    if isinstance(column, np.ndarray):
        return hash(np.ascontiguousarray(column).tobytes())
    return hash(tuple(column))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters for one child process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, name, start, end, parent, job]
        self.job = 0
        self._stack: list[int] = []
        self._counts = {name: [0] for name in COUNTED}
        self._extra: dict[str, float] = defaultdict(float)
        self._plans: dict[str, set] = defaultdict(set)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        originals: dict[str, object] = {}
        for name, sites in SPANNED.items():
            for module, attr in sites:
                owner, key = _resolve(module, attr)
                fn = getattr(owner, key)
                wrapped = originals.setdefault(name, self._span(name, fn))
                self._patch(owner, key, wrapped)
        for name, sites in COUNTED.items():
            for module, attr in sites:
                owner, key = _resolve(module, attr)
                self._patch(owner, key, self._counter(self._counts[name], getattr(owner, key)))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _patch(self, owner, key: str, replacement) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    @staticmethod
    def _counter(cell: list, fn):
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn):
        before = getattr(self, "_before_" + name.split(".")[1], None)
        after = getattr(self, "_after_" + name.split(".")[1], None)
        spans = self.spans
        stack = self._stack

        def spanned(*args, **kwargs):
            state = before(args, kwargs) if before else None
            record = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.job]
            spans.append(record)
            stack.append(record[0])
            record[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
                if after:
                    after(state, args, kwargs)

        return spanned

    # -- per-function extras, run outside the function's own span -----

    def _before_load_dataset(self, args, kwargs):
        self._extra["data.load_dataset.input_mb"] += _file_mb(args[0])
        return peak_rss_mb()

    def _after_load_dataset(self, rss_before, args, kwargs):
        self._extra["data.load_dataset.rss_growth_mb"] += peak_rss_mb() - rss_before

    def _after_write_dataset(self, state, args, kwargs):
        self._extra["data.write_dataset.output_mb"] += _file_mb(args[1])

    def _before_individual_ranking(self, args, kwargs):
        taxonomy = kwargs.get("taxonomy")
        key = (_column_key(args[0]), args[1], id(taxonomy) if taxonomy is not None else None)
        self._plans["microagg.individual_ranking"].add(key)

    def _before_multivariate_baseline(self, args, kwargs):
        data, k = args[0], args[1]
        key = (tuple(_column_key(col) for col in data.columns), k)
        self._plans["microagg.multivariate_baseline"].add(key)

    def _before_laplace_from_uniform(self, args, kwargs):
        self._extra["mechanisms.laplace_from_uniform.draws"] += float(np.size(args[0]))

    def _before_execute_release(self, args, kwargs):
        data = args[1]
        self._extra["released_values"] += float(data.n * data.m)

    # -- results ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-function and per-layer figures for this process's spans."""
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for sid, name, start, end, parent, _job in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _job in self.spans:
            self_s[name] += (end - start) - child[sid]

        out: dict[str, float] = {}

        def fn(name: str, *fields: str) -> None:
            for field in fields:
                value = {"calls": calls[name], "busy_s": busy[name], "self_s": self_s[name]}[field]
                out[f"{name}.{field}"] = float(value)

        fn("data.load_schema", "busy_s")
        fn("data.load_dataset", "busy_s")
        load_mb = self._extra["data.load_dataset.input_mb"]
        out["data.load_dataset.input_mb"] = load_mb
        out["data.load_dataset.mb_per_s"] = _ratio(load_mb, busy["data.load_dataset"])
        out["data.load_dataset.rss_growth_mb"] = self._extra["data.load_dataset.rss_growth_mb"]
        fn("data.write_dataset", "busy_s")
        write_mb = self._extra["data.write_dataset.output_mb"]
        out["data.write_dataset.output_mb"] = write_mb
        out["data.write_dataset.mb_per_s"] = _ratio(write_mb, busy["data.write_dataset"])

        fn("microagg.individual_ranking", "calls", "busy_s")
        ir_plans = len(self._plans["microagg.individual_ranking"])
        out["microagg.individual_ranking.distinct_plans"] = float(ir_plans)
        out["microagg.individual_ranking.plan_reuse"] = _ratio(
            ir_plans, calls["microagg.individual_ranking"]
        )
        fn("microagg.categorical_order_key", "busy_s")
        fn("microagg.multivariate_baseline", "calls", "busy_s")
        out["microagg.multivariate_baseline.distinct_plans"] = float(
            len(self._plans["microagg.multivariate_baseline"])
        )

        for release in ("ir_dp_release", "plain_laplace_release", "mv_dp_release"):
            fn(f"mechanisms.{release}", "calls", "busy_s", "self_s")
        fn("mechanisms.exponential_mechanism_centroid", "calls", "busy_s")
        fn("mechanisms.laplace_from_uniform", "calls")
        draws = self._extra["mechanisms.laplace_from_uniform.draws"]
        out["mechanisms.laplace_from_uniform.draws"] = draws
        out["mechanisms.laplace_from_uniform.draws_per_value"] = _ratio(
            draws, self._extra["released_values"]
        )

        fn("taxonomy.load_taxonomy", "busy_s")
        fn("taxonomy.marginality_table", "calls", "busy_s")
        fn("taxonomy.marginality_centroid", "calls", "busy_s")
        for name, cell in self._counts.items():
            out[f"{name}.calls"] = float(cell[0])

        for name in ("metrics.relative_error", "metrics.jsd", "metrics.variance_delta"):
            fn(name, "calls", "busy_s")

        fn("harness.execute_release", "calls", "busy_s")
        fn("harness.measure", "calls", "busy_s")
        fn("harness.run_sweep", "self_s")
        fn("harness.run_release", "self_s")
        fn("cli.main", "busy_s", "self_s")

        total = busy["cli.main"]
        for layer in LAYERS:
            layer_self = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"layer.{layer}.self_s"] = layer_self
            out[f"layer.{layer}.share"] = _ratio(layer_self, total)
        return out

    def write_spans(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "job")
        payload = [dict(zip(keys, record)) for record in self.spans]
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0
