"""Run one satagg CLI command in a fresh process and report its timings.

Usage: python3 perfbench/worker.py SPEC.json

The process imports `satagg.cli` first; the monotonic time at which that
import returns is the end of set-up (interpreter, numpy and package import).
It then reads the spec, a JSON object with keys `argv` (CLI arguments, or
null for a set-up probe that runs nothing), `workload`, `trace`, `src`,
`result` and `spans`, calls `satagg.cli.parse_and_dispatch(argv)` in-process
and writes the result JSON to the `result` path. With `trace` true the
layers are wrapped by `tracing.Tracer` first and the spans are written to
the `spans` path after the command returns.
"""
import sys
import time

import satagg.cli

READY = time.monotonic()


def main(spec_path: str) -> int:
    import json
    import os
    import resource
    from pathlib import Path

    import numpy as np
    import satagg

    with open(spec_path) as fh:
        spec = json.load(fh)
    src = Path(spec["src"]).resolve()
    if src not in Path(satagg.__file__).resolve().parents:
        print(f"satagg imported from {satagg.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {
        "ready": READY,
        "meta": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "kernel_implementation": getattr(satagg, "kernel_implementation", "absent"),
        },
    }
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from tracing import Tracer
            tracer = Tracer(spec["workload"]).install()
        dispatch = satagg.cli.parse_and_dispatch
        t0 = time.monotonic()
        if tracer is None:
            code = dispatch(spec["argv"])
        else:
            code = tracer.call("cli.parse_and_dispatch", dispatch, spec["argv"])
        result["wall_s"] = time.monotonic() - t0
        result["exit_code"] = code
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.write_spans(spec["spans"])
            result["layers"] = tracer.metrics()
            result["absent"] = tracer.absent
            result["errors"] = tracer.errors
            result["records"] = tracer.records
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
