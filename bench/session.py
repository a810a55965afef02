"""One user session: a fresh interpreter running a workload's command list.

Imports the CLI from the checkout's `src/`, generates the workload's
commands from the seed, then runs them one at a time through
`localmaxcut.cli.main` in this process, capturing each command's output.
The last line of standard output is one JSON object: the monotonic time at
which the first command was due, each command's exit code, latency and
output and speed scale, and the session's peak resident set.  With
`--spans` it also carries the per-layer metrics, and the spans are written
to that file.

A shared host can change speed by 30-40% in phases lasting seconds to
minutes, and no run length averages that out.  So the session also times a
fixed reference loop that shares no code with the package, right after
set-up and right after each command (for about a tenth of the command's
duration, at least REFERENCE_MIN_UNITS units).  Each `scale` is
REFERENCE_UNIT_S over the seconds per loop unit measured then.  run.py
multiplies set-up time by the scale measured after it, and each command's
time by the mean of the scales measured before and after it, which gives
the time at the speed at which one unit takes REFERENCE_UNIT_S.

Started by run.py, which pins the thread environment; not meant to be run
by hand.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from localmaxcut import cli  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

REFERENCE_UNIT_S = 0.75e-3
REFERENCE_START_UNITS = 200
REFERENCE_MIN_UNITS = 20
REFERENCE_SHARE = 0.1


def reference_unit() -> float:
    """Fixed interpreter, hashing and small-array work, independent of the package."""
    table = {}
    x = 0.0
    for i in range(2000):
        x = x * 0.5 + (i % 7) * 1.5
        table[(i * 7919) % 100003] = x
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(8):
        a = np.sqrt(a * a + 1.0) - 1.0
    return x + float(a[0]) + len(table)


def reference_speed(units: int) -> float:
    """REFERENCE_UNIT_S over the seconds per unit measured now: the factor
    that takes a time measured just before to the reference speed.  The
    collector is off meanwhile, so the package's heap does not slow the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            reference_unit()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_UNIT_S * units / elapsed


def run_command(argv) -> tuple[int | None, str, str]:
    """Exit code of one CLI call (None if it raised) and its captured output."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="trace the session and write its spans here")
    args = parser.parse_args()
    src = (BENCH.parent / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2
    commands = workloads.WORKLOADS[args.workload].commands(args.seed, args.smoke)
    due = time.monotonic()
    setup_scale = reference_speed(REFERENCE_START_UNITS)
    if args.setup_only:
        print(json.dumps({"due": due, "setup_scale": setup_scale}))
        return 0
    tracer = None
    if args.spans:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    records = []
    for i, argv in enumerate(commands):
        if tracer is not None:
            tracer.command = i
        start = time.perf_counter()
        code, out, err = run_command(argv)
        elapsed = time.perf_counter() - start
        units = round(elapsed * REFERENCE_SHARE / REFERENCE_UNIT_S)
        records.append({"argv": argv, "code": code, "ms": elapsed * 1e3,
                        "scale": reference_speed(max(REFERENCE_MIN_UNITS, units)),
                        "stdout": out, "stderr": err[-2000:]})
    result = {"due": due, "setup_scale": setup_scale, "commands": records,
              "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        refused = sum(r["code"] == 2 for r in records)
        result["layers"], result["absent_metrics"] = tracer.metrics(refused)
        result["absent_names"] = tracer.absent
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
