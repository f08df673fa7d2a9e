"""One workload iteration in a fresh interpreter.

    python3 perfbench/child.py <spec.json> <spawn time>

The spec (written by run.py) names the checkout root, the models to resolve
during set-up, the commands to run through ``rsjd.cli.run`` and whether to
trace.  Set-up time runs from the parent's ``time.monotonic()`` just before
the spawn (both processes read the same clock) through ``import rsjd`` and the
``resolve_model`` calls.  The reference kernel of calibrate.py runs twice
before each command and twice after the last, outside the timed commands; a
command's ``calib_s`` is the mean of the four runs around it.  The last line
of stdout is one JSON object with the set-up time, peak RSS, and each
command's wall time, calibration and exit code, plus the per-layer metrics
when tracing.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    import rsjd
    import rsjd.cli
    from rsjd.config import resolve_model

    for ref in spec["models"]:
        resolve_model(ref)
    setup_s = time.monotonic() - float(sys.argv[2])
    if not os.path.realpath(rsjd.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"rsjd imported from {rsjd.__file__}, not from {src}", file=sys.stderr)
        return 2

    from calibrate import kernel_seconds

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()

    commands = []
    before = [kernel_seconds(), kernel_seconds()]
    for cmd in spec["commands"]:
        argv = list(cmd["argv"]) + ["--threads", str(spec["threads"]),
                                    "--outdir", cmd["outdir"]]
        log = io.StringIO()
        error = None
        code = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                code = rsjd.cli.run(argv)
        except Exception:  # a crashing command is a failed operation, not a crashed run
            error = traceback.format_exc()
        seconds = time.perf_counter() - t0
        after = [kernel_seconds(), kernel_seconds()]
        commands.append({"name": cmd["name"], "seconds": seconds,
                         "calib_s": sum(before + after) / 4.0, "exit": code,
                         "error": error, "log": log.getvalue()[-2000:]})
        before = after

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "layers": tracer.metrics() if tracer is not None else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
