"""End-to-end benchmark of the localmaxcut CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Load model: a closed loop with one
client.  Each session is a fresh interpreter (see session.py) that imports
the CLI, generates the workload's command list from the seed, and runs the
commands one at a time in process, as a user's shell session would.
Sessions start with empty process-wide caches, BLAS and OpenMP pinned to
one thread, `LOCALMAXCUT_THREADS` unset and no `--threads` flag.

With `--trace 0`, sessions repeat while the next one is expected to end
within `--seconds` (at least one runs), and the last line of output
carries the end-to-end metrics:

  setup_s        interpreter start until the first command is due (import
                 of the CLI and input generation); median over the
                 sessions and SETUP_PROBES set-up-only interpreters
  wall_s         median over sessions of the summed command latencies:
                 time to solution for the command list, without the
                 reference loop
  op_p50_ms      median latency of one command over all sessions
  peak_rss_mib   median ru_maxrss of the sessions

Every time is taken at the reference speed: multiplied by the speed scale
measured on a fixed reference loop on either side of it (see session.py),
because a shared host's speed can drift by 30-40% in phases that a run
cannot average out.  The line before the last gives the same figures unscaled under
`raw`, the median scale, the machine description, and `op_tail_ms`, the
highest percentile with at least ten commands beyond it, with that
percentile and the command count, on workloads whose run has at least
TAIL_MIN_COMMANDS commands.

With `--trace 1`, untraced and traced sessions alternate and the last line
carries the per-layer metrics of tracer.py (median over traced sessions,
unscaled) and `trace.overhead_s`, the traced minus the untraced median
wall time at the reference speed.

Every command's output is checked (workloads.py); a command that exits
non-zero or fails its check counts as failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))  # for the checks; sessions import their own
SETUP_PROBES = 3
TAIL_MIN_COMMANDS = 110
TAIL_BEYOND = 10
SESSION_TIMEOUT_S = 170
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "peak_rss_mib": "MiB"}


class BenchError(RuntimeError):
    pass


def session_env() -> dict:
    env = dict(os.environ, **PINNED)
    env.pop("LOCALMAXCUT_THREADS", None)
    return env


def start_session(workload: str, seed: int, smoke: bool, *flags) -> dict:
    """Run one fresh interpreter; its result plus `setup_s` measured from spawn."""
    argv = [sys.executable, str(BENCH / "session.py"), "--workload", workload,
            "--seed", str(seed), *(["--smoke"] if smoke else []), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=session_env(), timeout=SESSION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"session exceeded {SESSION_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"session exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"session printed no result: {proc.stderr[-2000:]}") from None
    result["setup_s"] = result["due"] - spawned
    return result


def run_sessions(workload, seed, seconds, smoke, traced_too: bool):
    """Untraced sessions (alternating with traced ones when `traced_too`)
    until the next is expected to overrun `seconds`; at least one of each."""
    plain, traced = [], []
    began = time.monotonic()
    while True:
        start = time.monotonic()
        plain.append(start_session(workload, seed, smoke))
        if traced_too:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"{workload}-seed{seed}-session{len(traced)}.spans.json.gz"
            traced.append(start_session(workload, seed, smoke, "--spans", str(spans)))
            traced[-1]["spans"] = str(spans.relative_to(ROOT))
        now = time.monotonic()
        if now + (now - start) > began + seconds:
            return plain, traced


def check_commands(workload, sessions) -> tuple[int, int, list[str]]:
    """Commands attempted, commands failed, and the first failure reasons."""
    graphs = {}

    def graph_of(spec):
        if spec not in graphs:
            from localmaxcut.cli import parse_graph_spec
            graphs[spec] = parse_graph_spec(spec)
        return graphs[spec]

    attempted = failed = 0
    reasons = []
    for session in sessions:
        for rec in session["commands"]:
            attempted += 1
            if rec["code"] != 0:
                reason = f"exit {rec['code']}: {rec['stderr'].strip()[-300:]}"
            else:
                try:
                    reason = workload.check(rec["argv"], json.loads(rec["stdout"]),
                                            graph_of)
                except (json.JSONDecodeError, KeyError, TypeError) as e:
                    reason = f"unreadable report: {e!r}"
            if reason is not None:
                failed += 1
                if len(reasons) < 10:
                    reasons.append(f"{' '.join(rec['argv'])}: {reason}")
    return attempted, failed, reasons


def tail_latency(latencies_ms) -> dict | None:
    """Highest whole percentile with at least TAIL_BEYOND commands beyond it."""
    n = len(latencies_ms)
    if n < TAIL_MIN_COMMANDS:
        return None
    p = (100 * (n - TAIL_BEYOND)) // n
    rank = math.ceil(p * n / 100)
    return {"op_tail_ms": sorted(latencies_ms)[rank - 1], "unit": "ms",
            "percentile": p, "commands": n, "beyond": n - rank}


def latencies_ms(session, scaled: bool) -> list[float]:
    """Command latencies in ms; when `scaled`, at the reference speed, taking
    for each command the mean of the speeds measured just before and just
    after it."""
    after = [r["scale"] for r in session["commands"]]
    before = [session["setup_scale"]] + after[:-1]
    return [r["ms"] * ((b + a) / 2 if scaled else 1.0)
            for r, b, a in zip(session["commands"], before, after)]


def end_to_end(plain, probes, scaled: bool) -> tuple[dict, list]:
    """The end-to-end figures, at the reference speed when `scaled`, and the
    command latencies in ms they rest on."""
    per_session = [latencies_ms(p, scaled) for p in plain]
    latencies = [ms for session in per_session for ms in session]
    return {
        "setup_s": statistics.median(p["setup_s"] * (p["setup_scale"] if scaled else 1.0)
                                     for p in probes + plain),
        "wall_s": statistics.median(sum(s) / 1e3 for s in per_session),
        "op_p50_ms": statistics.median(latencies),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in plain),
    }, latencies


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line)."""
    workload = workloads.WORKLOADS[name]
    detail = {"workload": name, "seed": seed, "why": workload.why,
              "machine": machine(), "load": "closed loop, one client"}
    plain, traced = run_sessions(name, seed, seconds, smoke, traced_too=trace)
    attempted, failed, reasons = check_commands(workload, plain + traced)
    detail.update(sessions=len(plain), failures=reasons)
    if trace:
        layers = {m: statistics.median(t["layers"][m] for t in traced)
                  for m in traced[0]["layers"]}
        layers["trace.overhead_s"] = (
            statistics.median(sum(latencies_ms(t, True)) / 1e3 for t in traced)
            - statistics.median(sum(latencies_ms(p, True)) / 1e3 for p in plain))
        metrics = {m: {"value": v, "unit": tracer.PER_LAYER[m][0]}
                   for m, v in layers.items()}
        detail.update(traced_sessions=len(traced),
                      absent_metrics=traced[0]["absent_metrics"],
                      absent_names=traced[0]["absent_names"],
                      spans=[t["spans"] for t in traced])
    else:
        probes = [start_session(name, seed, smoke, "--setup-only")
                  for _ in range(SETUP_PROBES)]
        values, latencies = end_to_end(plain, probes, scaled=True)
        raw, _ = end_to_end(plain, probes, scaled=False)
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}
        detail.update(raw=raw,
                      scale=statistics.median(r["scale"] for p in plain
                                              for r in p["commands"]),
                      commands=len(latencies), op_tail=tail_latency(latencies))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "localmaxcut" / "cli.py").is_file():
        print(f"error: no localmaxcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
