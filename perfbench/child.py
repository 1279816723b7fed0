"""One leibnizlab command in a fresh interpreter, with its timings.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the checkout
root, the CLI arguments (``null`` to stop after set-up), the file for the
timing result and, for a traced run, the file for the spans.  The command's
own output goes to this process's stdout and stderr, which the caller
redirects.  With ``"calibrate": true`` and no arguments, it times a fixed
loop instead (see ``calibrate``).  Times are CLOCK_MONOTONIC nanoseconds, comparable with the
caller's clock.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
import traceback


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Fastest of five runs of a fixed loop of small numpy operations, the
    shape of the library's hot path; it tracks the machine's speed."""
    import numpy as np

    x = np.random.default_rng(0).uniform(-1.0, 1.0, 8)
    w = np.full(8, 1.0 / 8.0)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(4000):
            m = float(np.max(np.abs(x)))
            acc += m * float(np.dot(w, (np.abs(x) / m) ** 3.0)) ** (1.0 / 3.0)
            acc += float(np.sort(x)[::-1].sum())
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import leibnizlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"leibnizlab was imported from {cli.__file__}, not from {src}")
    cli.build_parser()
    result = {"setup_end_ns": now_ns()}
    if spec.get("calibrate"):
        result["calibration_s"] = calibrate()

    if spec["argv"] is not None:
        tracer = None
        if spec.get("trace"):
            from tracing import Tracer  # this script's directory leads sys.path

            tracer = Tracer()
            tracer.install()
        result["main_start_ns"] = now_ns()
        try:
            rc = cli.main(spec["argv"])
        except SystemExit as exc:  # argparse refuses malformed flags this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the CLI would die with a traceback: exit 1
            traceback.print_exc()
            rc = 1
        result["main_end_ns"] = now_ns()
        result["rc"] = rc
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.write(spec["trace"])
            result["span_names"] = tracer.names
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
