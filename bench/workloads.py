"""The benchmark's workloads and the checks their outputs must pass.

A workload turns a seed into a fixed list of `localmaxcut` argument
vectors; the program sees nothing else.  Each workload also names the
check one command's JSON report must pass, and says in `why` why it is in
the benchmark: each one makes a different layer do most of the work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# The paper's table, to six decimals: degree -> side -> value.
PAPER = {"2": {"classical": 0.950000, "quantum": 0.939375},
         "3": {"classical": 0.772568, "quantum": 0.819292}}
PAPER_TOL = 5e-7
WINNER = {"2": "classical", "3": "quantum"}
VERIFY_TOL = 1e-9
MC_SIGMAS = 6

# The acceptance fixtures: every cycle up to girth 9 and the stock cubic
# graphs the statevector can hold in a few milliseconds.
FIXTURES = tuple(f"cycle:{n}" for n in range(3, 10)) + tuple(
    f"named:{name}" for name in ("K4", "CUBE", "K33", "PETERSEN", "HEAWOOD"))
FIXTURE_SAMPLES = 50

# Cold verification: one sample on each of many random cubic graphs, the
# same number in every (n, girth) cell.  Compile cost varies from graph to
# graph by about 40%, so a list this long keeps the total within a few
# percent from one seed to the next.
COLD_SIZES = (10, 12, 14)
COLD_GIRTHS = (3, 4)
COLD_PER_CELL = 25

# Monte Carlo: cycles whose lengths the seed draws within narrow bands,
# with the trials scaled so each simulates about the same number of
# vertex-trials, plus a fixed panel of girth-5 random cubic graphs.  Cost
# per vertex-trial depends on n, hence the bands.  The panel's graph seeds
# do not follow the workload seed: the pairing model's rejection count is
# geometric in the graph seed, so a seed-drawn panel would change the
# workload's cost by a factor of two from one seed to the next.
MC_CYCLE_BANDS = (2000, 4000, 6000, 8000)
MC_CYCLE_BAND_WIDTH = 100
MC_CYCLE_VERTEX_TRIALS = 2_000_000
MC_RANDOM_PANEL = ((1000, 1), (1500, 2), (2000, 3))
MC_RANDOM_TRIALS = 400

JSON_FLAGS = ["--json", "--no-timestamp"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int, bool], list[list[str]]]
    check: Callable[[list[str], dict, Callable], str | None]


def _seeds(seed: int) -> random.Random:
    return random.Random(f"localmaxcut-bench-{seed}")


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def reproduce_commands(seed: int, smoke: bool) -> list[list[str]]:
    """Both degrees of the headline table; the seed does not change the input."""
    return [["reproduce", *JSON_FLAGS]]


def check_reproduce(argv, doc, graph_of) -> str | None:
    if doc.get("holds") is not True:
        return "separation inequalities do not hold"
    for d, sides in PAPER.items():
        row = doc["degrees"][d]
        if row["winner"] != WINNER[d]:
            return f"degree {d}: winner {row['winner']}"
        for side, want in sides.items():
            got = row[side]["value"]
            if abs(got - want) > PAPER_TOL:
                return f"degree {d} {side}: {got!r} is not {want} +- {PAPER_TOL}"
    return None


def verify_fixture_commands(seed: int, smoke: bool) -> list[list[str]]:
    rng = _seeds(seed)
    graphs = FIXTURES[:3] if smoke else FIXTURES
    samples = 2 if smoke else FIXTURE_SAMPLES
    return [["verify", "--graph", g, "--samples", str(samples),
             "--seed", str(rng.randrange(2**31)), *JSON_FLAGS] for g in graphs]


def verify_cold_commands(seed: int, smoke: bool) -> list[list[str]]:
    """One sample on each of a list of distinct random cubic graph specs."""
    rng = _seeds(seed)
    specs = set()
    commands = []
    for _ in range(1 if smoke else COLD_PER_CELL):
        for n in COLD_SIZES[:1] if smoke else COLD_SIZES:
            for g in COLD_GIRTHS:
                spec = None
                while spec is None or spec in specs:
                    spec = f"random:{n},3,{g},{rng.randrange(2**31)}"
                specs.add(spec)
                commands.append(["verify", "--graph", spec, "--samples", "1",
                                 "--seed", str(rng.randrange(2**31)),
                                 *JSON_FLAGS])
    return commands


def check_verify(argv, doc, graph_of) -> str | None:
    if doc.get("ok") is not True:
        return "engine and statevector disagree"
    worst = max(doc["max_abs_diff_full"], doc["max_abs_diff_term"])
    if not worst <= VERIFY_TOL:
        return f"engine vs statevector differ by {worst:.3e}"
    return None


def classical_mc_commands(seed: int, smoke: bool) -> list[list[str]]:
    rng = _seeds(seed)
    if smoke:
        runs = [("cycle:300", 20), ("random:100,3,5,1", 20)]
    else:
        runs = []
        for band in MC_CYCLE_BANDS:
            n = band + rng.randrange(MC_CYCLE_BAND_WIDTH)
            runs.append((f"cycle:{n}", round(MC_CYCLE_VERTEX_TRIALS / n)))
        runs += [(f"random:{n},3,5,{s}", MC_RANDOM_TRIALS)
                 for n, s in MC_RANDOM_PANEL]
    return [["classical", "run", "--graph", spec, "--trials", str(trials),
             "--seed", str(rng.randrange(2**31)), *JSON_FLAGS]
            for spec, trials in runs]


def non_tree_fraction(g) -> float:
    """Share of vertices whose one-round outcome can differ from the tree value.

    A vertex's final state reads the initial bits of every vertex within
    distance two and the coins of itself and its neighbours, so the
    tree-exact probability holds wherever the edges that touch its closed
    neighbourhood form a tree.
    """
    bad = 0
    for v in range(g.n):
        edges = {(min(a, b), max(a, b))
                 for a in (v, *g.adjacency[v]) for b in g.adjacency[a]}
        vertices = {x for e in edges for x in e}
        bad += len(edges) != len(vertices) - 1
    return bad / g.n


def mc_bound_failure(mean: float, stderr: float, tree: float,
                     fraction: float) -> str | None:
    """Only non-tree vertices may move the mean off the tree value, each by at most 1."""
    bound = fraction + MC_SIGMAS * stderr
    if not abs(mean - tree) <= bound:
        return f"mean {mean} is {abs(mean - tree):.3e} from {tree}, bound {bound:.3e}"
    return None


def check_classical(argv, doc, graph_of) -> str | None:
    stats = doc["stats"]
    if stats["trials"] != int(_option(argv, "--trials")):
        return f"ran {stats['trials']} trials"
    if "tree_value" not in doc:
        return "no tree value reported"
    fraction = non_tree_fraction(graph_of(_option(argv, "--graph")))
    return mc_bound_failure(stats["mean"], stats["stderr"], doc["tree_value"],
                            fraction)


WORKLOADS = {w.name: w for w in (
    Workload(
        "reproduce",
        "the paper's headline table; the optimizer's grid and simplex over the "
        "classical exact forms do nearly all the work",
        reproduce_commands, check_reproduce),
    Workload(
        "verify_fixtures",
        "few Hamiltonians at many angles: warm engine evaluation against the "
        "statevector, compile paid once per graph",
        verify_fixture_commands, check_verify),
    Workload(
        "verify_cold",
        "every Hamiltonian new: engine compile plus one evaluation per graph, "
        "and the compile cache growing for the whole session",
        verify_cold_commands, check_verify),
    Workload(
        "classical_mc",
        "the only workload on Monte Carlo and the random regular generator at "
        "scale, with n in the thousands",
        classical_mc_commands, check_classical),
)}
