"""Layer spans recorded from outside the package.

A module calls another module's function through the name it imported it
by, so replacing that name in the calling module traces every call made
from there and leaves the package's files untouched.  `BOUNDARIES` lists
those names.  A name that has gone from its module, or whose arguments or
result no longer have the shape an observer reads, makes every metric that
needs it absent rather than failing the run.

Spans are kept in memory as [name, start_ns, end_ns, parent, command, tag]
and written out once the session ends.  Time metrics ending in `_s`, `_ms`
or `_us` are sums over one session's command list; divide by the matching
`_calls` for a per-call cost.  They are self time (duration minus the time
child spans cover) except the stage totals `graph.build_s`,
`hamiltonian.build_s`, `optimize.grid_s` and `optimize.nm_s`, which include
the calls made inside the stage.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter_ns

NAME, START, END, PARENT, COMMAND, TAG = range(6)


def _random_graph(tracer, span, args, result):
    tracer.counts["graph.random_returned"] += 1


def _terms(tracer, span, args, result):
    tracer.counts["hamiltonian.terms"] += len(result.nonconstant_terms())


def _first_or_repeat(tracer, span, args, result):
    h = args[0]
    span[TAG] = "repeat" if h in tracer.seen else "first"
    tracer.seen.add(h)


def _families(tracer, span, args, result):
    tracer.counts["qaoa_engine.families"] += sum(
        len(c.families) for c in result[1].contributions)


def _array_passes(state_at, passes):
    """Observer charging 16 bytes per amplitude for each pass over the state."""
    def observe(tracer, span, args, result):
        state = result if state_at is None else args[state_at]
        tracer.counts["statevector.max_qubits"] = max(
            tracer.counts["statevector.max_qubits"], state.n)
        tracer.counts["statevector.bytes"] += 16 * 2**state.n * passes(state)
    return observe


def _vertex_trials(tracer, span, args, result):
    tracer.counts["classical.vertex_trials"] += args[0].n * result.trials


def _maxima(tracer, span, args, result):
    tracer.counts["optimize.maxima"] += len(result.maxima)


def _iterations(tracer, span, args, result):
    tracer.counts["optimize.nm_iters"] += result.iterations


# (span name, module, attribute, observer run on the returned value)
BOUNDARIES = (
    ("cli.main", "localmaxcut.cli", "main", None),
    ("graph.build", "localmaxcut.cli", "make_cycle", None),
    ("graph.build", "localmaxcut.cli", "make_named", None),
    ("graph.build", "localmaxcut.cli", "make_random_regular", _random_graph),
    ("graph.build", "localmaxcut.cli", "load_edge_list", None),
    ("graph.girth", "localmaxcut.graph", "girth", None),
    ("hamiltonian.build", "localmaxcut.cli", "build_localmaxcut_hamiltonian",
     _terms),
    ("hamiltonian.build", "localmaxcut.cli", "make_hamiltonian", None),
    ("hamiltonian.evaluate_all", "localmaxcut.statevector", "evaluate_all", None),
    ("qaoa_engine.full", "localmaxcut.cli", "expectation_full", _first_or_repeat),
    ("qaoa_engine.zk", "localmaxcut.cli", "expectation_zk", _families),
    ("qaoa_engine.closed_form", "localmaxcut.optimize", "closed_form_f2", None),
    ("qaoa_engine.closed_form", "localmaxcut.optimize", "closed_form_f3", None),
    ("statevector.init", "localmaxcut.cli", "uniform_state",
     _array_passes(None, lambda s: 1)),
    ("statevector.phase", "localmaxcut.cli", "apply_phase",
     _array_passes(None, lambda s: 1)),
    ("statevector.mixer", "localmaxcut.cli", "apply_mixer",
     _array_passes(None, lambda s: s.n)),
    ("statevector.expect", "localmaxcut.cli", "expectation_sv",
     _array_passes(1, lambda s: 1)),
    ("classical.exact", "localmaxcut.optimize", "exact_prob_d2", None),
    ("classical.exact", "localmaxcut.optimize", "exact_prob_d3", None),
    ("classical.exact", "localmaxcut.cli", "exact_prob_d2", None),
    ("classical.exact", "localmaxcut.cli", "exact_prob_d3", None),
    ("classical.mc", "localmaxcut.cli", "monte_carlo", _vertex_trials),
    ("optimize.run", "localmaxcut.cli", "optimize_classical", _maxima),
    ("optimize.run", "localmaxcut.cli", "optimize_qaoa", _maxima),
    ("optimize.grid", "localmaxcut.optimize", "grid_sweep", None),
    ("optimize.nm", "localmaxcut.optimize", "nelder_mead", _iterations),
)

# metric -> (unit, span names it needs).  The comment over each group names
# the end-to-end metric, and the workload, that the group should move.
PER_LAYER = {
    # wall_s on classical_mc and verify_cold
    "graph.build_s": ("s", ("graph.build",)),
    "graph.girth_checks": ("count", ("graph.girth",)),
    "graph.accept_ratio": ("ratio", ("graph.girth", "graph.build")),
    # op_p50_ms on verify_cold
    "hamiltonian.build_s": ("s", ("hamiltonian.build",)),
    "hamiltonian.terms": ("count", ("hamiltonian.build",)),
    # wall_s on both verify workloads: the statevector re-derives the
    # diagonal on every call
    "hamiltonian.evaluate_all_calls": ("count", ("hamiltonian.evaluate_all",)),
    "hamiltonian.evaluate_all_s": ("s", ("hamiltonian.evaluate_all",)),
    # op_p50_ms and op_tail_ms on verify_cold: compile plus one evaluation
    "qaoa_engine.full_first_ms": ("ms", ("qaoa_engine.full",)),
    # wall_s on verify_fixtures: evaluation only
    "qaoa_engine.full_repeat_ms": ("ms", ("qaoa_engine.full",)),
    "qaoa_engine.repeat_share": ("ratio", ("qaoa_engine.full",)),
    "qaoa_engine.zk_calls": ("count", ("qaoa_engine.zk",)),
    "qaoa_engine.zk_s": ("s", ("qaoa_engine.zk",)),
    "qaoa_engine.families": ("count", ("qaoa_engine.zk",)),
    # peak_rss_mib on verify_cold
    "qaoa_engine.cache_entries": ("count", ("qaoa_engine.cache",)),
    # wall_s on reproduce
    "qaoa_engine.closed_form_calls": ("count", ("qaoa_engine.closed_form",)),
    "qaoa_engine.closed_form_us": ("us", ("qaoa_engine.closed_form",)),
    # wall_s on both verify workloads
    "statevector.phase_s": ("s", ("statevector.phase",)),
    "statevector.mixer_s": ("s", ("statevector.mixer",)),
    "statevector.expect_s": ("s", ("statevector.expect",)),
    "statevector.expect_calls": ("count", ("statevector.expect",)),
    # peak_rss_mib; bytes are computed as 16 per amplitude per array pass,
    # not measured
    "statevector.max_qubits": ("qubits", ("statevector.init",)),
    "statevector.bytes_computed": ("B", ("statevector.init", "statevector.phase",
                                         "statevector.mixer",
                                         "statevector.expect")),
    # wall_s on reproduce
    "classical.exact_calls": ("count", ("classical.exact",)),
    "classical.exact_us": ("us", ("classical.exact",)),
    # wall_s and op_p50_ms on classical_mc
    "classical.mc_s": ("s", ("classical.mc",)),
    "classical.mc_vertex_trials_per_s": ("1/s", ("classical.mc",)),
    # wall_s on reproduce; refine_yield is distinct maxima reported per
    # Nelder-Mead start, a measure of wasted refinements
    "optimize.grid_s": ("s", ("optimize.grid",)),
    "optimize.grid_evals": ("count", ("optimize.grid",)),
    "optimize.nm_s": ("s", ("optimize.nm",)),
    "optimize.nm_evals": ("count", ("optimize.nm",)),
    "optimize.nm_starts": ("count", ("optimize.nm",)),
    "optimize.nm_iters": ("count", ("optimize.nm",)),
    "optimize.refine_yield": ("ratio", ("optimize.run", "optimize.nm")),
    # op_p50_ms on every workload: parsing and JSON emission
    "cli.self_s": ("s", ("cli.main",)),
    "cli.refused": ("count", ("cli.main",)),
    # traced minus untraced wall_s, from run.py
    "trace.overhead_s": ("s", ()),
}

OBJECTIVES = ("classical.exact", "qaoa_engine.closed_form")


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span[START]
        for j in sorted(children[i], key=lambda j: spans[j][START]):
            lo = max(spans[j][START], cursor)
            hi = min(spans[j][END], span[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span[END] - span[START] - covered)
    return out


class Tracer:
    """Wraps the boundary names of one interpreter and records their spans."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seen = set()
        self.command = -1
        self.installed = set()
        self.absent = []
        self.broken = set()
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                try:
                    observe(self, span, args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.broken.add(name)
            return result

        return traced

    def install(self, boundaries=BOUNDARIES):
        for name, module_name, attr, observe in boundaries:
            module = _module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn, observe))
            self._undo.append((module, attr, fn))
            self.installed.add(name)

    def uninstall(self):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def write(self, path):
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "command", "tag"],
                       "names": names,
                       "spans": [[index[s[NAME]], *s[1:]] for s in self.spans]},
                      f)

    def metrics(self, refused: int) -> tuple[dict, list[str]]:
        """The per-layer metrics of this session, and those that are absent."""
        cache = _compile_cache()
        if cache is not None:
            self.installed.add("qaoa_engine.cache")
        spans = self.spans
        own = self_times(spans)
        calls = Counter()
        total = Counter()
        self_ns = Counter()
        for span, s in zip(spans, own):
            key = span[NAME] if span[TAG] is None else f"{span[NAME]}:{span[TAG]}"
            calls[key] += 1
            total[key] += span[END] - span[START]
            self_ns[key] += s
        under = Counter()
        for span in spans:
            if span[NAME] in OBJECTIVES:
                stage = _enclosing(spans, span, ("optimize.grid", "optimize.nm"))
                under[stage] += 1
        c = self.counts
        girth_checks = calls["graph.girth"]
        full_calls = calls["qaoa_engine.full:first"] + calls["qaoa_engine.full:repeat"]
        mc_s = self_ns["classical.mc"] / 1e9
        value = {
            "graph.build_s": total["graph.build"] / 1e9,
            "graph.girth_checks": girth_checks,
            "graph.accept_ratio": _ratio(c["graph.random_returned"], girth_checks),
            "hamiltonian.build_s": total["hamiltonian.build"] / 1e9,
            "hamiltonian.terms": c["hamiltonian.terms"],
            "hamiltonian.evaluate_all_calls": calls["hamiltonian.evaluate_all"],
            "hamiltonian.evaluate_all_s": self_ns["hamiltonian.evaluate_all"] / 1e9,
            "qaoa_engine.full_first_ms": self_ns["qaoa_engine.full:first"] / 1e6,
            "qaoa_engine.full_repeat_ms": self_ns["qaoa_engine.full:repeat"] / 1e6,
            "qaoa_engine.repeat_share": _ratio(calls["qaoa_engine.full:repeat"],
                                               full_calls),
            "qaoa_engine.zk_calls": calls["qaoa_engine.zk"],
            "qaoa_engine.zk_s": self_ns["qaoa_engine.zk"] / 1e9,
            "qaoa_engine.families": c["qaoa_engine.families"],
            "qaoa_engine.cache_entries": cache or 0,
            "qaoa_engine.closed_form_calls": calls["qaoa_engine.closed_form"],
            "qaoa_engine.closed_form_us": self_ns["qaoa_engine.closed_form"] / 1e3,
            "statevector.phase_s": self_ns["statevector.phase"] / 1e9,
            "statevector.mixer_s": self_ns["statevector.mixer"] / 1e9,
            "statevector.expect_s": self_ns["statevector.expect"] / 1e9,
            "statevector.expect_calls": calls["statevector.expect"],
            "statevector.max_qubits": c["statevector.max_qubits"],
            "statevector.bytes_computed": c["statevector.bytes"],
            "classical.exact_calls": calls["classical.exact"],
            "classical.exact_us": self_ns["classical.exact"] / 1e3,
            "classical.mc_s": mc_s,
            "classical.mc_vertex_trials_per_s": _ratio(c["classical.vertex_trials"],
                                                       mc_s),
            "optimize.grid_s": total["optimize.grid"] / 1e9,
            "optimize.grid_evals": under["optimize.grid"],
            "optimize.nm_s": total["optimize.nm"] / 1e9,
            "optimize.nm_evals": under["optimize.nm"],
            "optimize.nm_starts": calls["optimize.nm"],
            "optimize.nm_iters": c["optimize.nm_iters"],
            "optimize.refine_yield": _ratio(c["optimize.maxima"], calls["optimize.nm"]),
            "cli.self_s": self_ns["cli.main"] / 1e9,
            "cli.refused": refused,
        }
        absent = [m for m, (_, needs) in PER_LAYER.items()
                  if any(n not in self.installed or n in self.broken
                         for n in needs)]
        return value, absent


def _enclosing(spans, span, names):
    while span[PARENT] >= 0:
        span = spans[span[PARENT]]
        if span[NAME] in names:
            return span[NAME]
    return None


def _ratio(part, whole) -> float:
    """part / whole, or 0 where nothing was attempted."""
    return part / whole if whole else 0.0


def _module(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _compile_cache():
    """Entries in the engine's compile cache, where it can be inspected."""
    engine = _module("localmaxcut.qaoa_engine")
    info = getattr(getattr(engine, "_compile_zk", None), "cache_info", None)
    return info().currsize if info is not None else None
