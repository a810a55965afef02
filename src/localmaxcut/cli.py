"""Command line driver for the LocalMaxCut quantum/classical comparison.

Subcommands:

  reproduce          optimize both sides and check the headline inequalities
  sweep              angle-grid CSV heatmap of the per-vertex expectation
  verify             analytic engine vs statevector on a concrete graph
  classical run      seeded Monte Carlo of the one-round algorithm
  classical exact    tree-exact satisfaction probability at given params
  classical curve    CSV over p of the probability at the best q, degree 1-10
  graph gen          emit a graph from the spec mini-language as an edge list
  ham dump           JSON dump of a graph's LocalMaxCut Hamiltonian
  qaoa explain       per-family breakdown of one <Z_K> expectation

Graphs are named by a one-line spec: `cycle:<n>`, `named:<name>`,
`random:<n>,<d>,<girth>,<seed>`, or `file:<path>`.

Every command resolves its configuration, echoes it back in its output,
and takes only the flags it reads: --out; --json and --no-timestamp on
the report commands (all but the table commands sweep, classical curve and
graph gen); --seed (default 0) on verify and classical run, which draw
random numbers.  A report is JSON, to --out or, with --json, to stdout;
it is byte-stable across reruns except for a timestamp field that
--no-timestamp suppresses.  A table goes to --out, or to stdout with the
human summary moved to stderr.

Exit codes: 0 when the run succeeds and any scientific check passes, 1 when
a check fails (inequality does not hold, engine/statevector mismatch), 2
for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .classical import (EXACT_MAX_DEGREE, ClassicalParams, exact_prob,
                        monte_carlo, optimal_preset)
from .graph import (Graph, girth, load_edge_list, make_cycle, make_named,
                    make_random_regular, philox_key, save_edge_list)
from .hamiltonian import (build_localmaxcut_hamiltonian, hamiltonian_to_json,
                          mask_of)
from .optimize import (QAOA_BOX, classical_curve, grid_sweep,
                       optimize_classical, optimize_qaoa, qaoa_objective)
from .qaoa_engine import expectation_terms, explain_zk, full_value
from .statevector import MAX_QUBITS, qaoa_values_sv, satisfied_counts

VERIFY_TOL = 1e-9
VERIFY_BLOCK = 64  # angle pairs per engine call in verify, for every term
SLOW_QUBITS = 20
# Rows go out as written, so a 2048^2 sweep peaks near 133 MiB at degree 2
# or 3 (ru_maxrss, 2-CPU Xeon); building the CSV text first took 530 MiB.
MAX_RESOLUTION = 2048
DEGREES = range(1, EXACT_MAX_DEGREE + 1)  # degrees reproduce and sweep take
# the paper's degrees, reproduce's default: degree -> (winning side, bound
# it clears, bound the loser stays under)
SEPARATION = {2: ("classical", 0.94, 0.94), 3: ("quantum", 0.81, 0.8)}


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from the `kind:args` mini-language."""
    prefix, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"graph spec {spec!r} is missing a ':'")
    if prefix == "cycle":
        return make_cycle(int(rest))
    if prefix == "named":
        return make_named(rest)
    if prefix == "random":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValueError(
                f"random spec wants n,d,girth,seed - got {rest!r}")
        n, d, min_girth, seed = (int(t) for t in parts)
        return make_random_regular(n, d, min_girth=min_girth, seed=seed)
    if prefix == "file":
        return load_edge_list(Path(rest).read_text())
    raise ValueError(f"unknown graph spec kind {prefix!r} in {spec!r}")


def _parse_q(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"--q wants comma-separated floats, got {text!r}")


def _params(args, d: int) -> ClassicalParams:
    """Explicit --p/--q with the tuned preset filling whatever is omitted."""
    if args.p is None or args.q is None:
        preset = optimal_preset(d)
    p = args.p if args.p is not None else preset.p
    q = _parse_q(args.q) if args.q is not None else preset.q
    return ClassicalParams(p=p, q=q)


def _check_resolution(resolution: int) -> None:
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"need 2 <= resolution <= {MAX_RESOLUTION}, "
                         f"got {resolution}")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _emit(args, payload: dict, lines, write=None, **resolved) -> None:
    """Route the report: JSON to --out/--json, text around.  A command
    with a table passes `write`, which writes it to --out or stdout, and
    an empty payload.

    The config echoed is the parsed arguments, with the `resolved` values
    in place of what was typed, and the format of the artifact: json for a
    report, csv for a table unless `resolved` names another.
    """
    config = {"format": "json" if write is None else "csv"}
    config.update((k, v) for k, v in {**vars(args), **resolved}.items()
                  if v is not None and k not in ("func", "json",
                                                 "no_timestamp"))
    human = ["config " + json.dumps(config, sort_keys=True), *lines]
    if write is not None:
        if args.out:
            with open(args.out, "w", newline="") as stream:
                write(stream)
            print("\n".join(human))
        else:
            write(sys.stdout)
            print("\n".join(human), file=sys.stderr)
        return
    doc = {"config": config, **payload}
    if not args.no_timestamp:
        doc["timestamp"] = _timestamp()
    if args.out or args.json:
        # strict JSON: a non-finite value raises here, before anything is
        # written
        report = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if args.out:
        Path(args.out).write_text(report + "\n")
    if args.json:
        print(report)
    else:
        print("\n".join(human))


def _csv(header, rows):
    """A `write` for `_emit`: CSV of a header row and then `rows` as they
    come, each a sequence of plain Python values (from `.tolist()`, so
    floats print as Python floats)."""
    return lambda stream: csv.writer(stream).writerows(
        itertools.chain([header], rows))


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def cmd_reproduce(args) -> int:
    """Recover both optima and test the separation inequalities."""
    degrees = [args.degree] if args.degree is not None else SEPARATION
    per = {}
    lines = []
    ok = True
    for d in degrees:
        rc = optimize_classical(d)
        rq = optimize_qaoa(d)
        winner = "classical" if rc.value > rq.value else "quantum"
        per[str(d)] = {
            "classical": dataclasses.asdict(rc),
            "quantum": dataclasses.asdict(rq),
            "separation": rc.value - rq.value,
            "winner": winner,
        }
        if d in SEPARATION:  # the paper states no inequality elsewhere
            side, clears, under = SEPARATION[d]
            won, lost = (rc, rq) if side == "classical" else (rq, rc)
            per[str(d)]["holds"] = won.value > clears and lost.value < under
            ok = ok and per[str(d)]["holds"]
        p, *q = rc.argmax
        lines.append(f"degree {d}: classical {_fmt(rc.value)} at "
                     f"p={_fmt(p)} q=" + ",".join(_fmt(t) for t in q))
        lines.append(f"degree {d}: quantum {_fmt(rq.value)} at "
                     f"gamma={_fmt(rq.argmax[0])} beta={_fmt(rq.argmax[1])}")
        lines.append(f"degree {d}: separation {_fmt(abs(rc.value - rq.value))}, "
                     f"{winner} wins")
    lines.append("PASS" if ok else "FAIL")
    _emit(args, {"degrees": per, "holds": ok}, lines)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    """Write the gamma,beta expectation grid as CSV and print its argmax."""
    _check_resolution(args.resolution)
    sweep = grid_sweep(qaoa_objective(args.degree), QAOA_BOX, args.resolution)
    gammas, betas = (axis.tolist() for axis in sweep.axes)
    rows = itertools.chain.from_iterable(
        zip(itertools.repeat(g), betas, values.tolist())
        for g, values in zip(gammas, sweep.values))
    lines = [f"argmax gamma={_fmt(sweep.argmax[0])} "
             f"beta={_fmt(sweep.argmax[1])} value={_fmt(sweep.value)}"]
    _emit(args, {}, lines, write=_csv(["gamma", "beta", "value"], rows))
    return 0


def cmd_verify(args) -> int:
    """Compare engine and statevector on seeded random angles; 0 iff they agree.

    The angle pairs go VERIFY_BLOCK at a time, so memory does not grow
    with --samples.  Per block, one engine call gives every <Z_m> of H at
    every pair (`full_value` sums them into F), and one `qaoa_values_sv`
    call the statevector's.  The statevector's diagonal is counted from
    the graph, not read from H, so a fault in the build of H moves one
    side only.  It is made once, after the first engine call, so an H
    over the engine's caps is refused before its 2^n codes are made (and
    before the note that a large statevector is slow).
    """
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    g = parse_graph_spec(args.graph)
    if g.n > MAX_QUBITS:
        raise ValueError(f"graph has {g.n} vertices; statevector caps at "
                         f"{MAX_QUBITS} qubits")
    slow = g.n >= SLOW_QUBITS
    h = build_localmaxcut_hamiltonian(g)
    rng = Generator(Philox(key=philox_key(args.seed)))
    masks = [m for m, _ in h.nonconstant_terms()]
    max_full = max_term = 0.0
    for start in range(0, args.samples, VERIFY_BLOCK):
        # row j is sample start + j; gamma is drawn before beta, as one
        # uniform(0, 2 pi) and one uniform(0, pi) call per sample would
        block = rng.random((min(VERIFY_BLOCK, args.samples - start), 2))
        gammas, betas = (block * (2.0 * math.pi, math.pi)).T
        engine = expectation_terms(h, masks, (gammas, betas))
        if start == 0:  # after the engine has refused any cap it exceeds
            if slow:
                print(f"note: statevector on {g.n} qubits is slow",
                      file=sys.stderr)
            codes = satisfied_counts(g)
        full = full_value(h, engine)
        sv_full, sv_terms = qaoa_values_sv(codes, masks, gammas, betas)
        max_term = float(np.max(np.abs(engine - sv_terms), initial=max_term))
        max_full = float(np.max(np.abs(full - sv_full), initial=max_full))
    ok = max_full <= args.tol and max_term <= args.tol
    shortest = girth(g)  # math.inf on a forest, which JSON writes as null
    payload = {
        "graph": {"n": g.n, "edges": len(g.edges), "degree": g.degree,
                  "girth": None if shortest == math.inf else shortest},
        "samples": args.samples, "tol": args.tol, "slow": slow,
        "max_abs_diff_full": max_full, "max_abs_diff_term": max_term, "ok": ok,
    }
    lines = [f"max |engine - statevector|: full {max_full:.3e}, "
             f"per-term {max_term:.3e} over {args.samples} samples",
             "PASS" if ok else "FAIL"]
    _emit(args, payload, lines)
    return 0 if ok else 1


def cmd_classical_run(args) -> int:
    """Seeded Monte Carlo of the one-round algorithm on a concrete graph."""
    g = parse_graph_spec(args.graph)
    d = g.degree
    if d is None:
        raise ValueError("classical run needs a regular graph")
    params = _params(args, d)
    stats = monte_carlo(g, params, args.trials, seed=args.seed)
    tree = exact_prob(d, params) if d <= EXACT_MAX_DEGREE else None
    payload = {"degree": d, "stats": {"trials": stats.trials, "mean": stats.mean,
                                      "stderr": stats.stderr}}
    lines = [f"mean {_fmt(stats.mean)} stderr {stats.stderr:.6e} "
             f"over {stats.trials} trials"]
    if tree is not None:
        payload["tree_value"] = tree
        lines.append(f"tree-exact reference {_fmt(tree)} "
                     "(meaningful above the girth threshold)")
    _emit(args, payload, lines, p=params.p, q=list(params.q))
    return 0


def cmd_classical_exact(args) -> int:
    """Tree-exact satisfaction probability at the given (p, q)."""
    d = args.degree
    if not 1 <= d <= EXACT_MAX_DEGREE:  # before a preset is looked up for d
        raise ValueError(f"exact sum covers 1 <= d <= {EXACT_MAX_DEGREE}, got {d}")
    params = _params(args, d)
    value = exact_prob(d, params)
    _emit(args, {"value": value}, [f"value {_fmt(value)}"], p=params.p,
          q=list(params.q))
    return 0


def cmd_classical_curve(args) -> int:
    """CSV over p of the tree-exact satisfaction probability at the best q.

    Every degree from 1 to EXACT_MAX_DEGREE: at each p the flip vector q
    is optimized by `optimize.classical_curve`, seeded with the best
    threshold rule.
    """
    _check_resolution(args.resolution)
    ps = np.linspace(0.0, 1.0, args.resolution)
    values = classical_curve(args.degree, ps)
    best = int(np.argmax(values))
    lines = [f"peak p={_fmt(float(ps[best]))} value={_fmt(values[best])}"]
    _emit(args, {}, lines,
          write=_csv(["p", "value"], zip(ps.tolist(), values.tolist())))
    return 0


def cmd_graph_gen(args) -> int:
    """Materialize a graph spec as an edge-list file."""
    g = parse_graph_spec(args.graph)
    degree = g.degree if g.degree is not None else "irregular"
    lines = [f"n {g.n} edges {len(g.edges)} degree {degree} girth {girth(g)}"]
    _emit(args, {}, lines, write=lambda stream: stream.write(save_edge_list(g)),
          format="edges")
    return 0


def cmd_ham_dump(args) -> int:
    """Dump the LocalMaxCut Hamiltonian of a graph as JSON terms."""
    g = parse_graph_spec(args.graph)
    h = build_localmaxcut_hamiltonian(g)
    dump = hamiltonian_to_json(h)
    lines = [f"n {h.n} constant {h.constant} "
             f"nonconstant terms {len(h.nonconstant_terms())}"]
    _emit(args, {"hamiltonian": dump}, lines)
    return 0


def cmd_qaoa_explain(args) -> int:
    """Show the full family decomposition behind one <Z_K> value."""
    g = parse_graph_spec(args.graph)
    if not all(t.strip() for t in args.subset.split(",")):
        raise ValueError(f"--subset has an empty item: {args.subset!r}")
    subset = [int(t) for t in args.subset.split(",")]
    if min(subset) < 0:
        raise ValueError(f"--subset has a negative vertex id: {args.subset}")
    if max(subset) >= g.n:
        raise ValueError(f"--subset vertex {max(subset)} is not within "
                         f"0..{g.n - 1}")
    if len(set(subset)) < len(subset):
        raise ValueError(f"--subset repeats a vertex: {args.subset}")
    h = build_localmaxcut_hamiltonian(g)
    breakdown = explain_zk(h, mask_of(subset), (args.gamma, args.beta))
    value = breakdown["total"]
    lines = [f"<Z_{{{','.join(map(str, subset))}}}> = {value:.12f} "
             f"({len(breakdown['contributions'])} contributing subsets L)"]
    _emit(args, {"value": value, "breakdown": breakdown}, lines, subset=subset)
    return 0


def _parents():
    """The shared flags as parent parsers: --out for every command, --json
    and --no-timestamp for the report commands, --seed for the commands
    that draw random numbers, --graph for the commands that read a graph,
    and --p/--q for the classical commands that take parameters."""
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", default=None,
                     help="write the CSV/JSON artifact here")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout")
    report.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-stable output")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="RNG seed; defaults to 0 and is echoed back")
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True,
                       help="graph spec: cycle:<n>, named:<name>, "
                            "random:<n>,<d>,<girth>,<seed> or file:<path>")
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--p", type=float, default=None)
    params.add_argument("--q", default=None, help="comma-separated q_0..q_d")
    return [out], [out, report], [out, report, seeded], graph, params


@functools.cache  # argparse measures the terminal on every add_argument
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localmaxcut",
        description="One-round quantum vs classical comparison on LocalMaxCut.")
    table, report, seeded, graph, params = _parents()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=report,
                       help="recover the headline optima and inequalities")
    p.add_argument("--degree", type=int, choices=DEGREES, default=None,
                   help=f"one degree, 1 to {EXACT_MAX_DEGREE} "
                        "(default: 2 and 3)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", parents=table,
                       help="CSV heatmap of the per-vertex expectation")
    p.add_argument("--degree", type=int, choices=DEGREES, required=True,
                   help=f"1 to {EXACT_MAX_DEGREE}")
    p.add_argument("--resolution", type=int, default=64)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[*seeded, graph],
                       help="engine vs statevector cross-check")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=VERIFY_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classical", help="one-round classical algorithm")
    csub = p.add_subparsers(dest="subcommand", required=True)
    run = csub.add_parser("run", parents=[*seeded, graph, params],
                          help="seeded Monte Carlo")
    run.add_argument("--trials", type=int, default=200)
    run.set_defaults(func=cmd_classical_run)
    exact = csub.add_parser("exact", parents=[*report, params],
                            help="tree-exact probability at (p, q)")
    exact.add_argument("--degree", type=int, required=True)
    exact.set_defaults(func=cmd_classical_exact)
    curve = csub.add_parser("curve", parents=table,
                            help="CSV over p of the probability at the best q")
    curve.add_argument("--degree", type=int, required=True,
                       help=f"1 to {EXACT_MAX_DEGREE}")
    curve.add_argument("--resolution", type=int, default=101)
    curve.set_defaults(func=cmd_classical_curve)

    p = sub.add_parser("graph", help="graph utilities")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    gen = gsub.add_parser("gen", parents=[*table, graph],
                          help="emit a graph spec as an edge list")
    gen.set_defaults(func=cmd_graph_gen)

    p = sub.add_parser("ham", help="Hamiltonian utilities")
    hsub = p.add_subparsers(dest="subcommand", required=True)
    dump = hsub.add_parser("dump", parents=[*report, graph],
                           help="JSON dump of the LocalMaxCut Hamiltonian")
    dump.set_defaults(func=cmd_ham_dump)

    p = sub.add_parser("qaoa", help="expectation engine utilities")
    qsub = p.add_subparsers(dest="subcommand", required=True)
    explain = qsub.add_parser("explain", parents=[*report, graph],
                              help="family breakdown of one <Z_K>")
    explain.add_argument("--subset", required=True,
                         help="comma-separated vertex list K")
    explain.add_argument("--gamma", type=float, required=True)
    explain.add_argument("--beta", type=float, required=True)
    explain.set_defaults(func=cmd_qaoa_explain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
