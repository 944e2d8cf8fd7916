"""microdp benchmark: seeded synthetic inputs through the `microdp` CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload release-numeric --seed 1 --seconds 35 --trace 0

`--workload` is one of release-numeric, release-categorical, sweep-grid,
or `all` for the three in turn. The run generates its inputs from
`--seed`, then repeats the workload's CLI sequence, each repetition in a
fresh child process, until `--seconds` are used up. It checks the outputs
after the timed repetitions and prints every metric by name and unit; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are end to end, medians over the
repetitions, with the timings scaled to a reference CPU speed (see
`calibrate`). With `--trace 1` untraced and traced repetitions alternate,
and the metrics are per function and per layer from the traced ones,
plus the tracing overhead. Results, with host details, input properties
and the sha256 of every output, go to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from checks import CheckLog, check_outputs, sha256, sweep_cells
from workloads import WORKLOADS, Sizes, Workload

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
# What `calibrate()` takes at the reference CPU speed the timings are scaled to.
CALIBRATION_REF_S = 0.4


@dataclass
class Repetition:
    traced: bool
    ok: bool
    elapsed_s: float
    calibration_s: float = 0.0
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    exit_codes: list[int] = field(default_factory=list)
    operations: int = 0  # CLI calls plus sweep cells
    failures: int = 0
    sha256: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)


def declared_units(kind: str) -> dict[str, str]:
    """Name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def calibrate() -> float:
    """Seconds a fixed pure-Python job takes now: the current CPU speed.

    On a shared virtual machine the speed a process gets can fall by half
    for minutes at a time, far beyond any regression bound. This job runs
    on the same pinned CPU just before every repetition, and the gated
    timings are scaled by CALIBRATION_REF_S over the run's median job
    time, which takes those phases out; the raw medians are kept too. The
    job formats, hashes, looks up and sorts a few megabytes of strings, so
    it feels cache and memory contention much as the workloads do, and it
    uses no microdp code, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    keys = [f"{(i * 7919) % 1_000_003 / 1e3:.6f}" for i in range(200_000)]
    table = {key: i for i, key in enumerate(keys)}
    total = 0
    for _ in range(2):
        for key in reversed(keys):
            total += table[key]
    keys.sort()
    return time.perf_counter() - start


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(calls, traced: bool, run_dir: Path, index: int, env: dict[str, str], root: Path) -> Repetition:
    calibration = calibrate()
    job_path = run_dir / f"job-{index}.json"
    result_path = run_dir / f"result-{index}.json"
    job = {
        "calls": [call.argv() for call in calls],
        "trace": traced,
        "result": str(result_path),
        "spans": str(run_dir / f"spans-{index}.json"),
    }
    job_path.write_text(json.dumps(job), encoding="utf-8")
    with open(run_dir / f"child-{index}.log", "w", encoding="utf-8") as log:
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(job_path)],
            cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S,
        )
    elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned + calibration
    if proc.returncode != 0 or not result_path.is_file():
        return Repetition(traced, False, elapsed, calibration, exit_codes=[proc.returncode or 1] * len(calls))
    result = json.loads(result_path.read_text(encoding="utf-8"))
    codes = [call["exit_code"] for call in result["calls"]]
    return Repetition(
        traced=traced,
        ok=all(code == 0 for code in codes),
        elapsed_s=elapsed,
        calibration_s=calibration,
        wall_s=result["wall_s"],
        setup_s=result["ready"] - spawned,
        peak_rss_mb=result["peak_rss_mb"],
        exit_codes=codes,
        layers=result.get("layers", {}),
    )


def host_info() -> dict:
    import numpy

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def repeat(calls, seconds: float, trace: bool, run_dir: Path, root: Path,
           log: CheckLog) -> list[Repetition]:
    """Run repetitions until the next one would overrun `seconds`.

    With `trace`, untraced and traced repetitions alternate. Each
    repetition's outputs are hashed and its operations counted between
    repetitions, outside every timed region.
    """
    env = child_env(root)
    reps: list[Repetition] = []
    # The child inherits the pin, so it runs where the calibration ran.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    started = time.perf_counter()
    try:
        while True:
            for call in calls:
                for path in call.outputs:
                    path.unlink(missing_ok=True)
            rep = run_child(calls, trace and len(reps) % 2 == 1, run_dir, len(reps), env, root)
            reps.append(rep)
            rep.operations = len(calls)
            rep.failures = sum(code != 0 for code in rep.exit_codes)
            for call in calls:
                for path in call.outputs:
                    if path.is_file():
                        rep.sha256[path.name] = sha256(path)
                if call.kind == "sweep" and call.sidecar.is_file():
                    cells = sweep_cells(call)
                    rep.operations += len(cells)
                    rep.failures += sum(cell["status"] != "ok" for cell in cells)
            if len(reps) > 1:
                log.add(f"repetition {len(reps)}: outputs identical to repetition 1",
                        rep.sha256 == reps[0].sha256)
            used = time.perf_counter() - started
            typical = statistics.median(r.elapsed_s for r in reps)
            if used + typical > seconds and (not trace or len(reps) >= 2):
                return reps
    finally:
        os.sched_setaffinity(0, cpus)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 root: Path, work: Path, sizes: Sizes = Sizes()) -> dict:
    """Generate inputs, time repetitions, check outputs; return the summary."""
    run_dir = work / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    started = time.perf_counter()
    calls = workload.build(run_dir, seed, sizes)
    input_gen_s = time.perf_counter() - started

    log = CheckLog()
    reps = repeat(calls, seconds, trace, run_dir, root, log)
    check_outputs(log, calls)
    attempted = sum(r.operations for r in reps) + len(log.items)
    failed = sum(r.failures for r in reps) + log.failed

    untraced = [r for r in reps if r.ok and not r.traced]
    traced = [r for r in reps if r.ok and r.traced]
    if not untraced or (trace and not traced):
        raise RuntimeError(f"{workload.name}: no repetition completed; see {run_dir}/child-*.log")
    wall = statistics.median(r.wall_s for r in untraced)
    raw = {
        "wall_s": wall,
        "setup_s": statistics.median(r.setup_s for r in reps if r.ok),
        "calibration_s": statistics.median(r.calibration_s for r in reps),
    }
    speed = CALIBRATION_REF_S / raw["calibration_s"]
    if trace:
        metrics = {
            name: statistics.median(r.layers[name] for r in traced)
            for name in traced[0].layers
        }
        traced_wall = statistics.median(r.wall_s for r in traced)
        metrics["trace.overhead_s"] = traced_wall - wall
        metrics["trace.overhead_frac"] = (traced_wall - wall) / wall
        units = declared_units("per_layer")
    else:
        metrics = {
            "wall_s": wall * speed,
            "values_per_s": sum(call.released_values for call in calls) / (wall * speed),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
            "setup_s": raw["setup_s"] * speed,
        }
        units = declared_units("end_to_end")

    summary = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host_info(),
        "inputs": [call.table.properties() for call in calls],
        "input_gen_s": input_gen_s,
        "calls": [call.argv() for call in calls],
        "repetitions": [asdict(rep) for rep in reps],
        "checks": log.items,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "raw_medians": raw,
        "speed_factor": speed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if trace:
        last = max(i for i, r in enumerate(reps) if r.ok and r.traced)
        shutil.copyfile(run_dir / f"spans-{last}.json", results / f"{workload.name}-seed{seed}-spans.json")
    return summary


def print_summary(summary: dict) -> None:
    print(f"{summary['workload']} (seed {summary['seed']}, trace {int(summary['trace'])}): "
          f"{len(summary['repetitions'])} repetitions; "
          f"input generation {summary['input_gen_s']:.2f} s, not timed")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<52} {metric['value']:>14.6f} {metric['unit']}")
    raw = summary["raw_medians"]
    print(f"  unscaled medians: wall_s {raw['wall_s']:.6f} s, setup_s {raw['setup_s']:.6f} s; "
          f"calibration {raw['calibration_s']:.6f} s, scale {summary['speed_factor']:.4f}")
    print(f"  {'failed_frac':<52} {summary['failed_frac']:>14.6f} "
          f"({summary['failed']} of {summary['attempted']} operations)")
    for item in summary["checks"]:
        if not item["ok"]:
            print(f"  FAILED CHECK {item['check']}: {item['detail']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "microdp" / "__init__.py").is_file():
        print(f"error: {root / 'src' / 'microdp'} not found; run from the root of a microdp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                               root, root / ".bench_work")
        print_summary(summary)
        summaries.append(summary)

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
