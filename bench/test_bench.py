"""Self-tests of the benchmark: python3 -m pytest bench"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from localmaxcut.cli import main as cli_main, parse_graph_spec  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_the_union_of_child_spans():
    #       0        10   20   30   50        90  100  120
    # root  [--------------------------------------]
    # a              [---------]                         (grandchild 12..18)
    # b                   [---------]                    overlaps a
    # c                                       [-------]  runs past root
    spans = [["root", 0, 100, -1, 0, None],
             ["a", 10, 30, 0, 0, None],
             ["g", 12, 18, 1, 0, None],
             ["b", 20, 50, 0, 0, None],
             ["c", 90, 120, 0, 0, None]]
    assert tracer.self_times(spans) == [100 - 40 - 10, 20 - 6, 6, 30, 30]


def test_tracer_reports_gone_names_and_reshaped_results_as_absent():
    import localmaxcut.cli as cli
    t = tracer.Tracer()
    t.install((("cli.main", "localmaxcut.cli", "main", None),
               ("classical.exact", "localmaxcut.cli", "no_such_function", None),
               ("hamiltonian.build", "localmaxcut.cli", "make_cycle",
                tracer._terms)))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["graph", "gen", "--graph", "cycle:5"]) == 0
    finally:
        t.uninstall()
    assert cli.main is cli_main
    values, absent = t.metrics(refused=0)
    assert t.absent == ["localmaxcut.cli.no_such_function"]
    assert {"classical.exact_calls", "hamiltonian.terms",
            "hamiltonian.build_s"} <= set(absent)
    assert "cli.self_s" not in absent and values["cli.self_s"] > 0


def _edge_file(tmp_path, *cycles):
    edges, base = [], 0
    for n in cycles:
        edges += [(base + i, base + (i + 1) % n) for i in range(n)]
        base += n
    path = tmp_path / "graph.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    return f"file:{path}"


def _monte_carlo(spec, trials):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["classical", "run", "--graph", spec, "--trials",
                         str(trials), "--seed", "5", "--json"]) == 0
    doc = json.loads(out.getvalue())
    return doc["stats"]["mean"], doc["stats"]["stderr"], doc["tree_value"]


def test_classical_bound_on_a_cycle_needs_no_slack():
    g = parse_graph_spec("cycle:40")
    assert workloads.non_tree_fraction(g) == 0.0
    assert workloads.mc_bound_failure(*_monte_carlo("cycle:40", 2000), 0.0) is None


def test_classical_bound_on_a_graph_with_a_triangle(tmp_path):
    spec = _edge_file(tmp_path, 3, 7)
    fraction = workloads.non_tree_fraction(parse_graph_spec(spec))
    assert fraction == pytest.approx(3 / 10)
    assert workloads.non_tree_fraction(parse_graph_spec("cycle:4")) == 1.0
    mean, stderr, tree = _monte_carlo(spec, 4000)
    # The triangle's vertices are satisfied with probability 0.87, not 0.95,
    # which moves the mean by more than six standard errors ...
    assert workloads.mc_bound_failure(mean, stderr, tree, 0.0) is not None
    # ... and by less than their share of the vertices.
    assert workloads.mc_bound_failure(mean, stderr, tree, fraction) is None


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.commands(3, False) == w.commands(3, False)
    cold = [c[2] for c in workloads.verify_cold_commands(3, False)]
    assert len(cold) == len(set(cold)) == 150
    assert cold != [c[2] for c in workloads.verify_cold_commands(4, False)]


def test_tail_percentile_keeps_ten_commands_beyond_it():
    assert run.tail_latency(list(range(109))) is None
    tail = run.tail_latency([float(i) for i in range(120)])
    assert (tail["percentile"], tail["beyond"], tail["op_tail_ms"]) == (91, 10, 109.0)
    tail = run.tail_latency([float(i) for i in range(1000)])
    assert (tail["percentile"], tail["beyond"]) == (99, 10)


def test_times_are_scaled_by_the_speed_measured_around_them():
    session = {"setup_s": 0.5, "setup_scale": 4.0, "rss_mib": 80.0,
               "commands": [{"ms": 100.0, "scale": 2.0}, {"ms": 300.0, "scale": 1.0},
                            {"ms": 200.0, "scale": 0.5}]}
    probes = [{"setup_s": 1.0, "setup_scale": 0.5},
              {"setup_s": 3.0, "setup_scale": 0.5}]
    scaled, latencies = run.end_to_end([session], probes, scaled=True)
    assert latencies == [300.0, 450.0, 150.0]
    assert scaled == {"setup_s": 1.5, "wall_s": 0.9, "op_p50_ms": 300.0,
                      "peak_rss_mib": 80.0}
    raw, _ = run.end_to_end([session], probes, scaled=False)
    assert raw == {"setup_s": 1.0, "wall_s": 0.6, "op_p50_ms": 200.0,
                   "peak_rss_mib": 80.0}


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        m: unit for m, (unit, _) in tracer.PER_LAYER.items()}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_fails_no_command(name):
    result, detail = run.measure(name, seed=1, seconds=0, trace=False, smoke=True)
    assert (result["correct"], result["failed"]) == (True, 0), detail["failures"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["verify_fixtures", "verify_cold", "classical_mc"])
def test_smoke_trace_reports_every_layer_metric(name):
    result, detail = run.measure(name, seed=1, seconds=0, trace=True, smoke=True)
    assert (result["correct"], result["failed"]) == (True, 0), detail["failures"]
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    assert detail["absent_metrics"] == []
