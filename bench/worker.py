"""One execution of a benchmark workload, in a fresh single-threaded process.

Usage: python3 worker.py REQUEST_JSON T0_NS

REQUEST_JSON holds the raw suite config, the output directory and what to
do; T0_NS is the parent's time.perf_counter_ns() just before it started this
process (CLOCK_MONOTONIC, shared by both processes). The worker imports
fastslow, builds the config with harness.config_from_dict (the same path as
``fastslow <suite> --config``), reports the set-up time, and unless the
request is set-up only, times harness.run_suite, optionally under the span
tracer. The result is written as JSON to the request's result path.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(request_path: str, t0_ns: int) -> int:
    request = json.loads(Path(request_path).read_text())
    from fastslow import harness

    cfg = harness.config_from_dict(request["raw"], out_dir=Path(request["out_dir"]))
    result: dict = {"setup_s": (time.perf_counter_ns() - t0_ns) / 1e9}
    if not request["setup_only"]:
        tracer = None
        if request["trace"]:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        t = time.perf_counter_ns()
        harness.run_suite(cfg)
        result["suite_s"] = (time.perf_counter_ns() - t) / 1e9
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.metrics(result["suite_s"])
    Path(request["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
