"""One repetition of a workload's CLI sequence in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

run.py starts this with PYTHONPATH set to the checkout's src/ and the
BLAS thread counts set to 1. The job file names the CLI argument lists,
whether to trace, and where to write the result. The child imports
microdp first so that the moment the import finishes marks the end of
set-up; the parent took the start time just before spawning.
"""

import sys
import time

import microdp.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402 - imports after the set-up mark on purpose
from pathlib import Path  # noqa: E402

from spans import peak_rss_mb  # noqa: E402


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    for index, argv in enumerate(job["calls"]):
        if tracer is not None:
            tracer.job = index
        start = time.perf_counter()
        code = microdp.cli.main(argv)
        calls.append({"argv": argv, "exit_code": code, "seconds": time.perf_counter() - start})
    result = {
        "ready": READY,
        "calls": calls,
        "wall_s": sum(call["seconds"] for call in calls),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write_spans(Path(job["spans"]))
    Path(job["result"]).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
