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

Every command resolves its configuration (including a defaulted seed) and
echoes it back in its output.  Machine-readable JSON goes to --out or, with
--json, to stdout; it is byte-stable across reruns except for a timestamp
field that --no-timestamp suppresses.  CSV-producing commands write CSV to
--out, or to stdout with the human summary moved to stderr.

Exit codes: 0 when the run succeeds and any scientific check passes, 1 when
a check fails (inequality does not hold, engine/statevector mismatch), 2
for usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from .classical import (EXACT_MAX_DEGREE, ClassicalParams, exact_prob,
                        monte_carlo, optimal_preset)
from .graph import (Graph, girth, load_edge_list, make_cycle, make_named,
                    make_random_regular, save_edge_list)
from .hamiltonian import (build_localmaxcut_hamiltonian, evaluate_all,
                          hamiltonian_to_json, mask_of, walsh_transform)
from .optimize import (QAOA_BOX, QAOA_OBJECTIVES, classical_curve,
                       grid_sweep, optimize_classical, optimize_qaoa,
                       qaoa_objective, report_to_json)
from .qaoa_engine import expectation_zk, explain_zk
from .statevector import (MAX_QUBITS, apply_mixer, apply_phase,
                          expectation_sv, uniform_state)

VERIFY_TOL = 1e-9
VERIFY_BLOCK = 64  # angle pairs per batched engine call in verify
SLOW_QUBITS = 20
MAX_RESOLUTION = 2048  # a degree-3 sweep grid of 2048^2 takes about 0.5 GiB
QAOA_DEGREES = tuple(QAOA_OBJECTIVES)  # degrees reproduce and sweep take
# degree -> (winning side, bound it clears, bound the loser stays under)
SEPARATION = {2: ("classical", 0.94, 0.94), 3: ("quantum", 0.81, 0.8)}


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation, echoed into every output for reproducibility."""
    command: str
    subcommand: str | None = None
    degree: int | None = None
    graph: str | None = None
    subset: tuple[int, ...] | None = None
    gamma: float | None = None
    beta: float | None = None
    p: float | None = None
    q: tuple[float, ...] | None = None
    trials: int | None = None
    samples: int | None = None
    resolution: int | None = None
    tol: float | None = None
    seed: int = 0
    out: str | None = None
    format: str = "json"


def config_dict(cfg: RunConfig) -> dict:
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in dataclasses.asdict(cfg).items() if v is not None}


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from the `kind:args` mini-language."""
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"graph spec {spec!r} is missing a ':'")
    if kind == "cycle":
        return make_cycle(int(rest))
    if kind == "named":
        return make_named(rest)
    if kind == "random":
        parts = rest.split(",")
        if len(parts) != 4:
            raise ValueError(
                f"random spec wants n,d,girth,seed - got {rest!r}")
        n, d, min_girth, seed = (int(t) for t in parts)
        return make_random_regular(n, d, min_girth=min_girth, seed=seed)
    if kind == "file":
        return load_edge_list(Path(rest).read_text())
    raise ValueError(f"unknown graph spec kind {kind!r} in {spec!r}")


def _resolve(args, command, subcommand=None, fmt="json", **fields) -> RunConfig:
    seed = args.seed if args.seed is not None else 0
    return RunConfig(command=command, subcommand=subcommand, seed=seed,
                     out=args.out, format=fmt, **fields)


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


def _emit(cfg: RunConfig, args, payload: dict, lines, csv_text=None) -> None:
    """Route the report: JSON to --out/--json, CSV to --out/stdout, text around."""
    doc = {"config": config_dict(cfg), **payload}
    if not args.no_timestamp:
        doc["timestamp"] = _timestamp()
    text = "config " + json.dumps(config_dict(cfg), sort_keys=True)
    human = [text] + list(lines)
    if csv_text is not None:
        if cfg.out:
            Path(cfg.out).write_text(csv_text)
            print("\n".join(human))
        else:
            sys.stdout.write(csv_text)
            print("\n".join(human), file=sys.stderr)
        return
    if cfg.out:
        Path(cfg.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print("\n".join(human))


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def cmd_reproduce(args) -> int:
    """Recover both optima and test the separation inequalities."""
    degrees = [args.degree] if args.degree is not None else QAOA_DEGREES
    cfg = _resolve(args, "reproduce", degree=args.degree)
    per = {}
    lines = []
    ok = True
    for d in degrees:
        rc = optimize_classical(d)
        rq = optimize_qaoa(d)
        winner = "classical" if rc.value > rq.value else "quantum"
        side, clears, under = SEPARATION[d]
        won, lost = (rc, rq) if side == "classical" else (rq, rc)
        holds = won.value > clears and lost.value < under
        ok = ok and holds
        per[str(d)] = {
            "classical": report_to_json(rc),
            "quantum": report_to_json(rq),
            "separation": rc.value - rq.value,
            "winner": winner,
            "holds": holds,
        }
        p, *q = rc.argmax
        lines.append(f"degree {d}: classical {_fmt(rc.value)} at "
                     f"p={_fmt(p)} q=" + ",".join(_fmt(t) for t in q))
        lines.append(f"degree {d}: quantum {_fmt(rq.value)} at "
                     f"gamma={_fmt(rq.argmax[0])} beta={_fmt(rq.argmax[1])}")
        lines.append(f"degree {d}: separation {_fmt(abs(rc.value - rq.value))}, "
                     f"{winner} wins")
    lines.append("PASS" if ok else "FAIL")
    _emit(cfg, args, {"degrees": per, "holds": ok}, lines)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    """Write the gamma,beta expectation grid as CSV and print its argmax."""
    _check_resolution(args.resolution)
    cfg = _resolve(args, "sweep", degree=args.degree,
                   resolution=args.resolution, fmt="csv")
    sweep = grid_sweep(qaoa_objective(args.degree), QAOA_BOX, args.resolution)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["gamma", "beta", "value"])
    gammas, betas = sweep.axes
    for i, g in enumerate(gammas):
        for j, b in enumerate(betas):
            writer.writerow([float(g), float(b), float(sweep.values[i, j])])
    lines = [f"argmax gamma={_fmt(sweep.argmax[0])} "
             f"beta={_fmt(sweep.argmax[1])} value={_fmt(sweep.value)}"]
    _emit(cfg, args, {}, lines, csv_text=buf.getvalue())
    return 0


def cmd_verify(args) -> int:
    """Compare engine and statevector on seeded random angles; 0 iff they agree.

    The angle pairs go VERIFY_BLOCK at a time, so memory does not grow
    with --samples.  One batched engine call per term gives each <Z_m> for
    the whole block, and the full value is constant + sum_m w_m <Z_m>.  On
    the statevector side one Walsh-Hadamard transform of |amp|^2 gives
    every <Z_m> of a sample, and the diagonal, built once, the full value.
    """
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be finite and >= 0, got {args.tol}")
    g = parse_graph_spec(args.graph)
    if g.n > MAX_QUBITS:
        raise ValueError(f"graph has {g.n} vertices; statevector caps at "
                         f"{MAX_QUBITS} qubits")
    cfg = _resolve(args, "verify", graph=args.graph, samples=args.samples,
                   tol=args.tol)
    slow = g.n >= SLOW_QUBITS
    if slow:
        print(f"note: statevector on {g.n} qubits is slow", file=sys.stderr)
    h = build_localmaxcut_hamiltonian(g)
    diagonal = evaluate_all(h)
    rng = Generator(Philox(key=[cfg.seed & (2**64 - 1), 0]))
    terms = h.nonconstant_terms()
    masks = [m for m, _ in terms]
    max_full = 0.0
    max_term = 0.0
    for start in range(0, args.samples, VERIFY_BLOCK):
        # row j is sample start + j; gamma is drawn before beta, as one
        # uniform(0, 2 pi) and one uniform(0, pi) call per sample would
        block = rng.random((min(VERIFY_BLOCK, args.samples - start), 2))
        gammas, betas = (block * (2.0 * math.pi, math.pi)).T
        engine = np.zeros((len(terms), len(gammas)))
        full = np.full(len(gammas), h.constant)
        for t, (mask, w) in enumerate(terms):
            engine[t] = expectation_zk(h, mask, (gammas, betas))
            full += w * engine[t]
        for j, (gamma, beta) in enumerate(zip(gammas, betas)):
            state = apply_mixer(beta, apply_phase(diagonal, gamma,
                                                  uniform_state(g.n)))
            probs = np.abs(state.amplitudes) ** 2
            sv_terms = 2.0 ** g.n * walsh_transform(probs)[masks]
            max_term = max(max_term, float(np.max(
                np.abs(engine[:, j] - sv_terms), initial=0.0)))
            max_full = max(max_full, abs(float(full[j])
                                         - expectation_sv(diagonal, state)))
    ok = max_full <= args.tol and max_term <= args.tol
    payload = {
        "graph": {"n": g.n, "edges": len(g.edges), "degree": g.degree,
                  "girth": girth(g)},
        "samples": args.samples, "tol": args.tol, "slow": slow,
        "max_abs_diff_full": max_full, "max_abs_diff_term": max_term, "ok": ok,
    }
    lines = [f"max |engine - statevector|: full {max_full:.3e}, "
             f"per-term {max_term:.3e} over {args.samples} samples",
             "PASS" if ok else "FAIL"]
    _emit(cfg, args, payload, lines)
    return 0 if ok else 1


def cmd_classical_run(args) -> int:
    """Seeded Monte Carlo of the one-round algorithm on a concrete graph."""
    g = parse_graph_spec(args.graph)
    d = g.degree
    if d is None:
        raise ValueError("classical run needs a regular graph")
    params = _params(args, d)
    cfg = _resolve(args, "classical", "run", graph=args.graph, p=params.p,
                   q=params.q, trials=args.trials)
    stats = monte_carlo(g, params, args.trials, seed=cfg.seed)
    tree = exact_prob(d, params) if d <= EXACT_MAX_DEGREE else None
    payload = {"degree": d, "stats": {"trials": stats.trials, "mean": stats.mean,
                                      "stderr": stats.stderr}}
    lines = [f"mean {_fmt(stats.mean)} stderr {stats.stderr:.6e} "
             f"over {stats.trials} trials"]
    if tree is not None:
        payload["tree_value"] = tree
        lines.append(f"tree-exact reference {_fmt(tree)} "
                     "(meaningful above the girth threshold)")
    _emit(cfg, args, payload, lines)
    return 0


def cmd_classical_exact(args) -> int:
    """Tree-exact satisfaction probability at the given (p, q)."""
    d = args.degree
    params = _params(args, d)
    cfg = _resolve(args, "classical", "exact", degree=d, p=params.p,
                   q=params.q)
    value = exact_prob(d, params)
    _emit(cfg, args, {"value": value}, [f"value {_fmt(value)}"])
    return 0


def cmd_classical_curve(args) -> int:
    """CSV over p of the tree-exact satisfaction probability at the best q.

    Every degree from 1 to EXACT_MAX_DEGREE: at each p the flip vector q
    is optimized by `optimize.classical_curve`, seeded with the best
    threshold rule.
    """
    _check_resolution(args.resolution)
    cfg = _resolve(args, "classical", "curve", degree=args.degree,
                   resolution=args.resolution, fmt="csv")
    ps = np.linspace(0.0, 1.0, args.resolution)
    values = classical_curve(args.degree, ps)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["p", "value"])
    for p, v in zip(ps, values):
        writer.writerow([float(p), float(v)])
    best = int(np.argmax(values))
    lines = [f"peak p={_fmt(float(ps[best]))} value={_fmt(values[best])}"]
    _emit(cfg, args, {}, lines, csv_text=buf.getvalue())
    return 0


def cmd_graph_gen(args) -> int:
    """Materialize a graph spec as an edge-list file."""
    g = parse_graph_spec(args.graph)
    cfg = _resolve(args, "graph", "gen", graph=args.graph, fmt="csv")
    degree = g.degree if g.degree is not None else "irregular"
    lines = [f"n {g.n} edges {len(g.edges)} degree {degree} girth {girth(g)}"]
    _emit(cfg, args, {}, lines, csv_text=save_edge_list(g))
    return 0


def cmd_ham_dump(args) -> int:
    """Dump the LocalMaxCut Hamiltonian of a graph as JSON terms."""
    g = parse_graph_spec(args.graph)
    cfg = _resolve(args, "ham", "dump", graph=args.graph)
    h = build_localmaxcut_hamiltonian(g)
    dump = hamiltonian_to_json(h)
    lines = [f"n {h.n} constant {h.constant} "
             f"nonconstant terms {len(h.nonconstant_terms())}"]
    _emit(cfg, args, {"hamiltonian": dump}, lines)
    return 0


def cmd_qaoa_explain(args) -> int:
    """Show the full family decomposition behind one <Z_K> value."""
    g = parse_graph_spec(args.graph)
    subset = tuple(int(t) for t in args.subset.split(","))
    if min(subset) < 0:
        raise ValueError(f"--subset has a negative vertex id: {args.subset}")
    if len(set(subset)) < len(subset):
        raise ValueError(f"--subset repeats a vertex: {args.subset}")
    cfg = _resolve(args, "qaoa", "explain", graph=args.graph, subset=subset,
                   gamma=args.gamma, beta=args.beta)
    h = build_localmaxcut_hamiltonian(g)
    breakdown = explain_zk(h, mask_of(subset), (args.gamma, args.beta))
    value = breakdown["total"]
    lines = [f"<Z_{{{','.join(map(str, subset))}}}> = {value:.12f} "
             f"({len(breakdown['contributions'])} contributing subsets L)"]
    _emit(cfg, args, {"value": value, "breakdown": breakdown}, lines)
    return 0


def _common() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed; defaults to 0 and is echoed back")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the CSV/JSON artifact here")
    common.add_argument("--json", action="store_true",
                        help="print the JSON report to stdout")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp for byte-stable output")
    return common


@functools.cache  # argparse measures the terminal on every add_argument
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localmaxcut",
        description="One-round quantum vs classical comparison on LocalMaxCut.")
    common = _common()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=[common],
                       help="recover the headline optima and inequalities")
    p.add_argument("--degree", type=int, choices=QAOA_DEGREES, default=None,
                   help="restrict to one degree (default: both)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("sweep", parents=[common],
                       help="CSV heatmap of the per-vertex expectation")
    p.add_argument("--degree", type=int, choices=QAOA_DEGREES, required=True)
    p.add_argument("--resolution", type=int, default=64)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", parents=[common],
                       help="engine vs statevector cross-check")
    p.add_argument("--graph", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=VERIFY_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classical", help="one-round classical algorithm")
    csub = p.add_subparsers(dest="classical_command", required=True)
    run = csub.add_parser("run", parents=[common], help="seeded Monte Carlo")
    run.add_argument("--graph", required=True)
    run.add_argument("--trials", type=int, default=200)
    run.add_argument("--p", type=float, default=None)
    run.add_argument("--q", default=None, help="comma-separated q_0..q_d")
    run.set_defaults(func=cmd_classical_run)
    exact = csub.add_parser("exact", parents=[common],
                            help="tree-exact probability at (p, q)")
    exact.add_argument("--degree", type=int, required=True)
    exact.add_argument("--p", type=float, default=None)
    exact.add_argument("--q", default=None, help="comma-separated q_0..q_d")
    exact.set_defaults(func=cmd_classical_exact)
    curve = csub.add_parser("curve", parents=[common],
                            help="CSV over p of the probability at the best q")
    curve.add_argument("--degree", type=int, required=True,
                       help=f"1 to {EXACT_MAX_DEGREE}")
    curve.add_argument("--resolution", type=int, default=101)
    curve.set_defaults(func=cmd_classical_curve)

    p = sub.add_parser("graph", help="graph utilities")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    gen = gsub.add_parser("gen", parents=[common],
                          help="emit a graph spec as an edge list")
    gen.add_argument("--graph", required=True)
    gen.set_defaults(func=cmd_graph_gen)

    p = sub.add_parser("ham", help="Hamiltonian utilities")
    hsub = p.add_subparsers(dest="ham_command", required=True)
    dump = hsub.add_parser("dump", parents=[common],
                           help="JSON dump of the LocalMaxCut Hamiltonian")
    dump.add_argument("--graph", required=True)
    dump.set_defaults(func=cmd_ham_dump)

    p = sub.add_parser("qaoa", help="expectation engine utilities")
    qsub = p.add_subparsers(dest="qaoa_command", required=True)
    explain = qsub.add_parser("explain", parents=[common],
                              help="family breakdown of one <Z_K>")
    explain.add_argument("--graph", required=True)
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
