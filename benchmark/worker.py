"""Runs mwl CLI operations in-process for the benchmark.

Reads one JSON list of CLI arguments per line on stdin and answers each with
one JSON line: exit code, captured stdout and stderr, the time spent in
`mwl.cli.main`, and the process's peak resident memory so far. An exception
escaping `main` is answered as exit code 1 with its traceback, as a console
script would end. With `--trace`, spans are installed around mwl's layers
and each answer also carries that operation's per-layer sums and the time
spent computing them after the operation (`trace_s`).

    PYTHONPATH=src python3 benchmark/worker.py [--trace]
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import mwl.cli


def serve(trace: bool) -> None:
    tracer = None
    if trace:
        import tracing

        tracer = tracing.install()
    proto = sys.stdout
    for line in sys.stdin:
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = mwl.cli.main(argv)
            except Exception:
                rc = 1
                traceback.print_exc()
        elapsed = time.perf_counter() - t0
        answer = {
            "rc": rc,
            "out": out.getvalue(),
            "err": err.getvalue(),
            "seconds": elapsed,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
        if tracer is not None:
            t0 = time.perf_counter()
            answer["layers"] = tracer.drain(answer["out"])
            answer["notes"] = tracer.notes
            answer["trace_s"] = time.perf_counter() - t0
        proto.write(json.dumps(answer) + "\n")
        proto.flush()


if __name__ == "__main__":
    serve("--trace" in sys.argv[1:])
