"""End-to-end runs of the command line driver through cli.main."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from derivations import (closed_form_f2, hrss_preset, prob_satisfied_initial,
                         q2_star, zk_edge_d2)
from localmaxcut import (ClassicalParams, build_localmaxcut_hamiltonian,
                         exact_prob, girth, load_edge_list, make_cycle,
                         make_hamiltonian, make_named, optimal_preset)
from localmaxcut import cli, hamiltonian, qaoa_engine, statevector
from localmaxcut.classical import EXACT_MAX_DEGREE
from localmaxcut.cli import main, parse_graph_spec


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv, "--json", "--no-timestamp")
    return rc, json.loads(out), err


def test_parse_graph_spec():
    assert parse_graph_spec("cycle:6").n == 6
    assert parse_graph_spec("named:petersen").edges == make_named("PETERSEN").edges
    g = parse_graph_spec("random:20,3,4,7")
    assert g.degree == 3 and girth(g) >= 4
    for bad in ("cycle", "mesh:4", "random:20,3", "cycle:x"):
        with pytest.raises(ValueError):
            parse_graph_spec(bad)


def test_graph_spec_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    assert parse_graph_spec(f"file:{path}").n == 3


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "verify", "--graph", "mesh:4")[0] == 2
    assert run_cli(capsys, "verify", "--graph", "cycle:27")[0] == 2  # over the cap
    for bad in ("--samples=0", "--samples=-3", "--tol=nan", "--tol=inf",
                "--tol=-1e-9"):
        assert run_cli(capsys, "verify", "--graph", "cycle:5", bad)[0] == 2
    assert run_cli(capsys, "classical", "exact", "--degree", "2",
                   "--q", "a,b,c")[0] == 2
    for degree in ("0", str(EXACT_MAX_DEGREE + 1), str(10 ** 9)):
        assert run_cli(capsys, "classical", "curve", "--degree", degree)[0] == 2
    for resolution in ("1", str(cli.MAX_RESOLUTION + 1)):
        assert run_cli(capsys, "classical", "curve", "--degree", "2",
                       "--resolution", resolution)[0] == 2
        assert run_cli(capsys, "sweep", "--degree", "3",
                       "--resolution", resolution)[0] == 2
    rc, _, err = run_cli(capsys, "classical", "run", "--graph", "cycle:5",
                         "--q", "0,0,1.5")
    assert rc == 2
    assert err.startswith("error:")
    # refused before the per-trial array is allocated
    for trials in ("--trials=0", "--trials=1000000000000"):
        rc, _, err = run_cli(capsys, "classical", "run", "--graph", "cycle:5",
                             trials)
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err


def _degree_choices(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    (action,) = [a for a in sub.choices[command]._actions if a.dest == "degree"]
    return set(action.choices)


def test_degree_tables_agree(capsys):
    degrees = set(range(1, EXACT_MAX_DEGREE + 1))
    assert set(cli.SEPARATION) == {2, 3}  # the paper's inequalities
    assert set(cli.SEPARATION) <= degrees
    for command in ("reproduce", "sweep"):
        assert _degree_choices(command) == degrees
        for degree in ("0", str(EXACT_MAX_DEGREE + 1)):
            with pytest.raises(SystemExit) as exc:
                main([command, "--degree", degree])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


def test_random_spec_below_moore_bound_exits_2(capsys):
    rc, _, err = run_cli(capsys, "graph", "gen", "--graph", "random:8,3,5,0")
    assert rc == 2
    assert "Moore bound needs n >= 10" in err


def test_config_echo_and_seed_default(capsys):
    rc, doc, _ = run_json(capsys, "classical", "run", "--graph", "cycle:20",
                          "--trials", "3")
    assert rc == 0
    cfg = doc["config"]
    assert cfg["command"] == "classical"
    assert cfg["subcommand"] == "run"
    assert cfg["seed"] == 0
    assert cfg["p"] == 0.5
    assert cfg["q"] == [0.0, 0.0, 0.8]
    assert cfg["format"] == "json"
    assert "timestamp" not in doc
    # a command that draws no random numbers has no seed to echo
    rc, doc, _ = run_json(capsys, "classical", "exact", "--degree", "2")
    assert rc == 0
    assert "seed" not in doc["config"]
    assert doc["config"]["q"] == [0.0, 0.0, 0.8]
    assert doc["value"] == pytest.approx(0.95, abs=1e-12)


# the commands that draw no random numbers, with their required arguments
UNSEEDED = {
    "sweep": ["sweep", "--degree", "3"],
    "classical curve": ["classical", "curve", "--degree", "3"],
    "graph gen": ["graph", "gen", "--graph", "cycle:5"],
    "reproduce": ["reproduce"],
    "classical exact": ["classical", "exact", "--degree", "2"],
    "ham dump": ["ham", "dump", "--graph", "cycle:5"],
    "qaoa explain": ["qaoa", "explain", "--graph", "cycle:5", "--subset", "0",
                     "--gamma", "0.3", "--beta", "0.2"],
}
TABLES = ("sweep", "classical curve", "graph gen")  # they write no JSON
# every flag slot a command used to accept and ignore
UNREAD_FLAGS = [(name, "--seed") for name in UNSEEDED] + [
    (name, flag) for name in TABLES for flag in ("--json", "--no-timestamp")]


@pytest.mark.parametrize("name,flag", UNREAD_FLAGS)
def test_unread_flag_is_a_usage_error(capsys, name, flag):
    argv = [*UNSEEDED[name], flag, *(["1"] if flag == "--seed" else [])]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_one_parser_serves_every_command(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--degree", "11"])
    assert exc.value.code == 2
    capsys.readouterr()
    rc, doc, _ = run_json(capsys, "classical", "exact", "--degree", "3")
    assert rc == 0
    assert doc["config"]["degree"] == 3
    assert doc["value"] == pytest.approx(exact_prob(3, optimal_preset(3)),
                                         abs=1e-12)
    rc, doc, _ = run_json(capsys, "verify", "--graph", "cycle:5",
                          "--samples", "2")
    assert rc == 0 and doc["ok"] is True
    assert doc["config"]["samples"] == 2 and "degree" not in doc["config"]


def test_threads_flag_refused(capsys, monkeypatch):
    # the worker pool is gone: the flag is a usage error and the old
    # environment variable has no effect
    with pytest.raises(SystemExit) as exc:
        main(["classical", "exact", "--degree", "2", "--threads", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    monkeypatch.setenv("LOCALMAXCUT_THREADS", "2")
    rc, doc, _ = run_json(capsys, "classical", "exact", "--degree", "2")
    assert rc == 0
    assert "threads" not in doc["config"]


@pytest.mark.parametrize("argv", [
    ("classical", "exact", "--degree", "3"),
    ("classical", "run", "--graph", "cycle:9", "--trials", "20", "--seed",
     "3"),
    ("ham", "dump", "--graph", "named:K33"),
    # one angle pair: the engine's pair sums at B = 1
    ("verify", "--graph", "named:K33", "--samples", "1"),
    ("qaoa", "explain", "--graph", "named:K33", "--subset", "0,3",
     "--gamma", "0.9", "--beta", "0.4"),
], ids=["classical-exact", "classical-run", "ham-dump", "verify",
        "qaoa-explain"])
def test_byte_stable_output(capsys, argv):
    argv = (*argv, "--json", "--no-timestamp")
    rc1, out1, _ = run_cli(capsys, *argv)
    rc2, out2, _ = run_cli(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_timestamp_present_by_default(capsys):
    rc, out, _ = run_cli(capsys, "classical", "exact", "--degree", "2", "--json")
    assert rc == 0
    assert "timestamp" in json.loads(out)


def test_classical_exact_explicit_params(capsys):
    rc, doc, _ = run_json(capsys, "classical", "exact", "--degree", "3",
                          "--p", "0.5", "--q", "0,0,0,1")
    assert rc == 0
    assert doc["value"] == pytest.approx(197 / 256, abs=1e-12)


def test_classical_exact_beyond_degree_3(capsys):
    rc, out, _ = run_cli(capsys, "classical", "exact", "--degree", "4",
                         "--p", "0.5", "--q", "0,0,0,1,1")
    assert rc == 0
    assert "value 0.836227" in out  # the oracle gives 0.8362274169921875
    rc, _, err = run_cli(capsys, "classical", "exact", "--degree", "4")
    assert rc == 2 and "tuned parameters cover d in {2, 3}" in err


@pytest.mark.parametrize("d", (0, EXACT_MAX_DEGREE + 1))
def test_classical_exact_degree_out_of_range(capsys, d):
    q = ",".join(["0"] * (d + 1))
    rc, _, err = run_cli(capsys, "classical", "exact", "--degree", str(d),
                         "--p", "0.5", "--q", q)
    assert rc == 2 and "exact sum covers" in err
    # without --p and --q the range is checked before the preset is
    # looked up (it used to report "tuned parameters cover d in {2, 3}")
    rc, _, err = run_cli(capsys, "classical", "exact", "--degree", str(d))
    assert rc == 2 and "exact sum covers 1 <= d <= 10" in err


def test_classical_run(capsys):
    rc, doc, _ = run_json(capsys, "classical", "run", "--graph", "cycle:200",
                          "--trials", "20", "--seed", "11")
    assert rc == 0
    stats = doc["stats"]
    assert stats["trials"] == 20
    assert 0.8 <= stats["mean"] <= 1.0
    assert doc["tree_value"] == pytest.approx(0.95, abs=1e-12)
    assert doc["config"]["seed"] == 11
    # irregular graphs are a usage error
    rc2, _, _ = run_cli(capsys, "classical", "run", "--graph", "named:PETERSEN",
                        "--q", "0,0,1")
    assert rc2 == 2  # q has 3 entries but degree 3 wants 4


def test_classical_run_degree_4(capsys):
    # girth 3: the pairing model finds no girth >= 4 graph at d = 4 in
    # its 1000 attempts
    rc, doc, _ = run_json(capsys, "classical", "run", "--graph",
                          "random:100,4,3,0", "--p", "0.5",
                          "--q", "0,0,0,1,1", "--trials", "20")
    assert rc == 0
    assert doc["degree"] == 4
    assert doc["tree_value"] == exact_prob(4, hrss_preset(4))


def test_classical_curve_csv(capsys, tmp_path):
    out = tmp_path / "curve.csv"
    rc, stdout, _ = run_cli(capsys, "classical", "curve", "--degree", "2",
                            "--resolution", "5", "--out", str(out))
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["p", "value"]
    ps = [float(r[0]) for r in rows[1:]]
    vals = [float(r[1]) for r in rows[1:]]
    assert ps == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert vals[1] == pytest.approx(vals[3], abs=1e-12)  # p <-> 1-p symmetry
    assert max(vals) == pytest.approx(0.95, abs=1e-12)
    assert "peak p=0.500000" in stdout


def _curve(capsys, tmp_path, degree, resolution):
    out = tmp_path / "curve.csv"
    rc, _, _ = run_cli(capsys, "classical", "curve", "--degree", str(degree),
                       "--resolution", str(resolution), "--out", str(out))
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["p", "value"]
    return [(float(p), float(v)) for p, v in rows[1:]]


def test_classical_curve_d2_equals_stationarity_route(capsys, tmp_path):
    # the degree-2 optimum over q sits on q0 = q1 = 0 with q2 stationary
    rows = _curve(capsys, tmp_path, 2, 101)
    assert len(rows) == 101 and rows[0][0] == 0.0 and rows[-1][0] == 1.0
    for p, v in rows:
        q2 = min(1.0, max(0.0, q2_star(p, 0.0)))
        assert v == pytest.approx(
            exact_prob(2, ClassicalParams(p, (0.0, 0.0, q2))), abs=1e-12)


def test_classical_curve_d3_optimizes_q(capsys, tmp_path):
    rows = _curve(capsys, tmp_path, 3, 101)
    for p, v in rows:
        assert v >= exact_prob(3, ClassicalParams(p, (0.0, 0.0, 0.0, 1.0))) \
            - 1e-15
    # with every start bit equal, flipping the center at l = 3 with
    # probability 1/2 satisfies it half the time; q = (0,0,0,1) never does
    assert rows[0][1] == pytest.approx(0.5, abs=1e-12)
    assert rows[-1][1] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("degree", [1, 4])
def test_classical_curve_beyond_degrees_2_and_3(capsys, tmp_path, degree):
    rows = _curve(capsys, tmp_path, degree, 5)
    assert [p for p, _ in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(0.0 <= v <= 1.0 for _, v in rows)
    assert rows[2][1] >= exact_prob(degree, hrss_preset(degree))


def test_csv_to_stdout_moves_summary_to_stderr(capsys):
    rc, out, err = run_cli(capsys, "classical", "curve", "--degree", "3",
                           "--resolution", "3")
    assert rc == 0
    assert out.splitlines()[0] == "p,value"
    assert "config" in err and "peak" in err


def test_sweep_csv_matches_closed_form(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    rc, stdout, _ = run_cli(capsys, "sweep", "--degree", "2",
                            "--resolution", "8", "--out", str(out))
    assert rc == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["gamma", "beta", "value"]
    assert len(rows) == 1 + 64
    for g, b, v in (map(float, r) for r in rows[1:]):
        assert 0.0 <= g < 2 * math.pi  # half-open grid
        assert 0.0 <= b < math.pi
        assert v == pytest.approx(closed_form_f2(1, (g, b)), abs=1e-12)
    assert "argmax" in stdout


def test_sweep_degree_1(capsys):
    rc, out, err = run_cli(capsys, "sweep", "--degree", "1",
                           "--resolution", "4")
    assert rc == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["gamma", "beta", "value"] and len(rows) == 1 + 16
    values = [float(v) for _, _, v in rows[1:]]
    assert all(-1e-12 <= v <= 1 + 1e-12 for v in values)
    # gamma = 0 leaves the uniform start: one neighbour disagrees half the time
    assert values[:4] == pytest.approx([prob_satisfied_initial(1)] * 4,
                                       abs=1e-12)
    assert "argmax" in err


def test_verify_cycle(capsys):
    rc, doc, _ = run_json(capsys, "verify", "--graph", "cycle:7",
                          "--samples", "5")
    assert rc == 0
    assert doc["ok"] is True
    assert doc["max_abs_diff_full"] <= 1e-9
    assert doc["max_abs_diff_term"] <= 1e-9
    assert doc["graph"] == {"n": 7, "edges": 7, "degree": 2, "girth": 7}
    assert doc["config"]["tol"] == 1e-9


def _strict(constant):
    raise ValueError(f"{constant} is not JSON")


def test_verify_forest_report_is_strict_json(capsys, tmp_path):
    # an acyclic graph has no girth: null, not the non-JSON Infinity
    path = tmp_path / "forest.txt"
    path.write_text("0 1\n2 3\n")
    rc, out, _ = run_cli(capsys, "verify", "--graph", f"file:{path}",
                         "--samples", "2", "--json", "--no-timestamp")
    assert rc == 0
    doc = json.loads(out, parse_constant=_strict)
    assert doc["graph"] == {"n": 4, "edges": 2, "degree": 1, "girth": None}
    assert doc["ok"] is True


def test_non_finite_report_exits_2_unprinted(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "girth", lambda g: math.nan)
    out_path = tmp_path / "report.json"
    rc, out, err = run_cli(capsys, "verify", "--graph", "cycle:5",
                           "--samples", "1", "--json", "--no-timestamp",
                           "--out", str(out_path))
    assert rc == 2 and out == "" and err.startswith("error:")
    assert not out_path.exists()


def _counting_engine(monkeypatch, shift=None):
    """Replace cli.expectation_terms with a wrapper that records the batch
    size of each call and, in the row of the term K == shift, adds 1e-6
    to the values."""
    sizes = []
    engine = cli.expectation_terms

    def counted(h, Ks, angles):
        sizes.append(len(angles[0]))
        values = engine(h, Ks, angles)
        if shift is not None:
            values[list(Ks).index(shift)] += 1e-6
        return values

    monkeypatch.setattr(cli, "expectation_terms", counted)
    return sizes


def test_verify_calls_engine_once_per_block(capsys, monkeypatch):
    # every term of H goes through one engine call per block of angle pairs
    sizes = _counting_engine(monkeypatch)
    rc, doc, _ = run_json(capsys, "verify", "--graph", "cycle:7",
                          "--samples", str(cli.VERIFY_BLOCK + 1))
    assert rc == 0 and doc["ok"] is True
    assert sizes == [cli.VERIFY_BLOCK, 1]


def test_verify_solves_each_light_cone_once_per_block(capsys, monkeypatch):
    # each term's light cone is solved once per engine call, for all of
    # its subsets L at once, and the engine keeps nothing between calls
    solved = []
    families = qaoa_engine._families

    def counted(masks, K):
        solved.append(K)
        return families(masks, K)

    monkeypatch.setattr(qaoa_engine, "_families", counted)
    h = build_localmaxcut_hamiltonian(make_cycle(7))
    Ks = [K for K, _ in h.nonconstant_terms()]
    rc, doc, _ = run_json(capsys, "verify", "--graph", "cycle:7",
                          "--samples", str(cli.VERIFY_BLOCK + 1))
    assert rc == 0 and doc["ok"] is True
    assert solved == 2 * Ks


def test_verify_builds_diagonal_once(capsys, monkeypatch):
    # the statevector gates take the codes counted from the graph, so
    # --samples does not multiply their cost (the diagonal used to be
    # built twice per sample)
    calls = []
    count = statevector.satisfied_counts

    def counted(g):
        calls.append(g.n)
        return count(g)

    monkeypatch.setattr(cli, "satisfied_counts", counted)
    rc, doc, _ = run_json(capsys, "verify", "--graph", "cycle:7",
                          "--samples", str(cli.VERIFY_BLOCK + 1))
    assert rc == 0 and doc["ok"] is True
    assert calls == [7]


@pytest.mark.parametrize("graph", ["named:PETERSEN", "cycle:7"])
def test_verify_fails_on_a_fault_in_the_build_of_h(capsys, monkeypatch,
                                                     graph):
    # the statevector counts satisfied vertices from the graph, so a
    # fault in H moves the engine's side alone: H's first nonconstant
    # weight raised by 0.25 fails, which a statevector reading H would pass
    def planted(g):
        h = build_localmaxcut_hamiltonian(g)
        m, w = h.nonconstant_terms()[0]
        return make_hamiltonian(h.n, {**dict(h.terms), m: w + 0.25})

    monkeypatch.setattr(cli, "build_localmaxcut_hamiltonian", planted)
    rc, doc, _ = run_json(capsys, "verify", "--graph", graph)
    assert rc == 1 and doc["ok"] is False
    assert doc["max_abs_diff_full"] > 0.1


@pytest.mark.parametrize("graph,batches", [("named:PETERSEN", [16] * 4 + [1]),
                                          ("cycle:5", [64, 1])])
def test_verify_batches_match_one_sample_at_a_time(capsys, monkeypatch,
                                                   graph, batches):
    # the statevector side runs min(samples left in the block,
    # BLOCK >> n) samples side by side, and a batch gives the bits of
    # its samples one at a time: BLOCK = 2^n makes every batch one
    # sample, and the report is byte-equal.  The one budget sizes the
    # engine's product blocks too, so the same setting splits them into
    # more calls of _alphas, and no bit moves either
    widths, products = [], []
    mixer, alphas = statevector.apply_mixer, qaoa_engine._alphas

    def counted(beta, state):
        widths.append(state.shape[1])
        return mixer(beta, state)

    def counted_alphas(*args):
        products.append(len(args[2]))
        return alphas(*args)

    monkeypatch.setattr(statevector, "apply_mixer", counted)
    monkeypatch.setattr(qaoa_engine, "_alphas", counted_alphas)
    argv = ["verify", "--graph", graph, "--samples", "65", "--json",
            "--no-timestamp"]
    rc, batched, _ = run_cli(capsys, *argv)
    assert rc == 0 and widths == batches
    whole = len(products)
    widths.clear()
    products.clear()
    monkeypatch.setattr(hamiltonian, "BLOCK",
                        2 ** parse_graph_spec(graph).n)
    rc, alone, _ = run_cli(capsys, *argv)
    assert rc == 0 and widths == [1] * 65
    assert len(products) > whole
    assert batched == alone


def test_verify_report_does_not_rest_on_blas_threads():
    # <H> on the statevector side must not go through a BLAS dot:
    # OpenBLAS splits one across threads and sums it in another order,
    # which at 18 qubits moves the bits of max_abs_diff_full
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "localmaxcut.cli", "verify", "--graph",
             "random:18,3,5,1", "--samples", "2", "--json", "--no-timestamp"],
            cwd=root, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path,
                 "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        outs.append(result.stdout)
    assert json.loads(outs[0])["ok"] is True
    assert outs[0] == outs[1]


def test_classical_run_matches_one_root_per_chunk(capsys, monkeypatch):
    # the generator's short-cycle search takes its roots in chunks sized
    # by the one budget; at one element each chunk holds one root, as on
    # a graph of thousands of vertices at the default, and the graph the
    # generator accepts, and so the report, is byte-equal
    argv = ["classical", "run", "--graph", "random:200,3,5,1", "--trials",
            "20", "--json", "--no-timestamp"]
    rc, whole, _ = run_cli(capsys, *argv)
    monkeypatch.setattr(hamiltonian, "BLOCK", 1)
    rc1, chunked, _ = run_cli(capsys, *argv)
    assert rc == rc1 == 0 and whole == chunked


def test_verify_refuses_engine_caps_before_the_diagonal(capsys, monkeypatch):
    # degree 4 overflows the engine's light-cone cap; the 2^n codes must
    # not be counted first, since at MAX_QUBITS they take 64 MiB and
    # 1.7 s (2-CPU Xeon)
    calls = []
    monkeypatch.setattr(cli, "satisfied_counts", calls.append)
    rc, out, err = run_cli(capsys, "verify", "--graph", "random:16,4,3,1")
    assert rc == 2 and out == ""
    assert "exceed the enumeration cap" in err
    assert calls == []


def test_verify_notes_slow_statevector_only_after_the_engine(capsys):
    # the note is for a statevector run; an H the engine refuses never
    # reaches one, so it exits 2 without the note
    rc, out, err = run_cli(capsys, "verify", "--graph", "random:24,4,3,1",
                           "--samples", "1")
    assert rc == 2 and out == ""
    assert "light cone: 64 terms exceed the enumeration cap 25" in err
    assert "slow" not in err


def test_verify_fails_on_one_shifted_term(capsys, monkeypatch):
    h = build_localmaxcut_hamiltonian(make_cycle(7))
    _counting_engine(monkeypatch, shift=h.nonconstant_terms()[3][0])
    rc, doc, _ = run_json(capsys, "verify", "--graph", "cycle:7",
                          "--samples", "3")
    assert rc == 1
    assert doc["ok"] is False
    assert doc["max_abs_diff_term"] == pytest.approx(1e-6, rel=1e-6)
    assert doc["max_abs_diff_full"] > 1e-7


@pytest.mark.parametrize("graph,subset", [("cycle:7", "0,1"), ("cycle:5", "0")])
@pytest.mark.parametrize("angle", ["gamma", "beta"])
def test_qaoa_explain_refuses_overflowing_angle(capsys, graph, subset, angle):
    # 2 gamma W_M, or 2 beta, overflows at 1e308: exit 2 naming the angle,
    # with no numpy warning (on cycle:7 it blamed an imaginary residue nan,
    # and on cycle:5, where {0} has no family, a gamma of 1e308 printed 0
    # and exited 0)
    angles = {"gamma": "0.3", "beta": "0.2", angle: "1e308"}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "qaoa", "explain", "--graph", graph,
                               "--subset", subset, "--gamma", angles["gamma"],
                               "--beta", angles["beta"])
    assert caught == []
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {angle} = 1e+308 overflows")
    assert "Warning" not in err


def test_graph_gen_roundtrip(capsys, tmp_path):
    out = tmp_path / "petersen.txt"
    rc, stdout, _ = run_cli(capsys, "graph", "gen", "--graph",
                            "named:PETERSEN", "--out", str(out))
    assert rc == 0
    assert "n 10 edges 15 degree 3 girth 5" in stdout
    assert '"format": "edges"' in stdout  # an edge list, not CSV
    g = load_edge_list(out.read_text())
    assert g.edges == make_named("PETERSEN").edges
    # and the file feeds back in through the spec language
    rc2, doc, _ = run_json(capsys, "ham", "dump", "--graph", f"file:{out}")
    assert rc2 == 0
    assert doc["hamiltonian"]["n"] == 10


def test_graph_gen_long_cycle(capsys, tmp_path):
    # girth is linear on a cycle: one BFS, then the rest peels away
    t0 = time.perf_counter()
    rc, stdout, _ = run_cli(capsys, "graph", "gen", "--graph", "cycle:10000",
                            "--out", str(tmp_path / "c.txt"))
    assert time.perf_counter() - t0 < 5.0
    assert rc == 0
    assert "n 10000 edges 10000 degree 2 girth 10000" in stdout


def test_edge_file_with_isolated_vertex_exits_2(capsys, tmp_path):
    # vertices 2..4 have no edge: refused before a graph is sized by id 6
    path = tmp_path / "gap.txt"
    path.write_text("0 1\n5 6\n")
    rc, _, err = run_cli(capsys, "graph", "gen", "--graph", f"file:{path}")
    assert rc == 2
    assert "vertex 2 has no edge" in err


def test_ham_dump_triangle(capsys):
    rc, doc, _ = run_json(capsys, "ham", "dump", "--graph", "cycle:3")
    assert rc == 0
    terms = doc["hamiltonian"]["terms"]
    assert terms[0] == {"subset": [], "weight": 2.25}
    assert [t["weight"] for t in terms[1:]] == [-0.75, -0.75, -0.75]


def test_qaoa_explain(capsys):
    rc, doc, _ = run_json(capsys, "qaoa", "explain", "--graph", "cycle:7",
                          "--subset", "0,1", "--gamma", "0.37",
                          "--beta", "0.21")
    assert rc == 0
    # girth 7 puts C_7 above the tree threshold, so the edge expectation
    # equals its closed form
    assert doc["value"] == pytest.approx(zk_edge_d2((0.37, 0.21)), abs=1e-12)
    assert doc["breakdown"]["K"] == [0, 1]
    assert doc["config"]["subset"] == [0, 1]
    assert len(doc["breakdown"]["contributions"]) == 3


@pytest.mark.parametrize("graph,subset,families",
                         [("cycle:7", "0,1", [1, 1, 2]),
                          ("cycle:5", "0", [])])
def test_qaoa_explain_counts_contributing_subsets(capsys, graph, subset,
                                                  families):
    # only the Ls with a family contribute, and only they have a record
    # (the count used to be every L: 4 and 2)
    argv = ("qaoa", "explain", "--graph", graph, "--subset", subset,
            "--gamma", "0.6", "--beta", "0.31")
    rc, doc, _ = run_json(capsys, *argv)
    assert rc == 0
    assert [len(c["families"]) for c in doc["breakdown"]["contributions"]] \
        == families
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert f"({len(families)} contributing subsets L)" in out


def test_qaoa_explain_caps_the_subsets_of_a_wide_k(capsys, tmp_path):
    # on a perfect matching a K of whole pairs has one family: 18 vertices
    # print their 512 contributing subsets; 20 exceed COSET_CAP's 2^18
    # subsets and exit 2 before they are listed; 19 cut a pair, so K has
    # no family and lists no subset
    path = tmp_path / "matching.txt"
    path.write_text("".join(f"{2 * i} {2 * i + 1}\n" for i in range(10)))
    explain = ("qaoa", "explain", "--graph", f"file:{path}", "--gamma", "0.3",
               "--beta", "0.2", "--subset")
    rc, doc, _ = run_json(capsys, *explain, ",".join(map(str, range(18))))
    assert rc == 0
    assert len(doc["breakdown"]["contributions"]) == 512
    rc, out, err = run_cli(capsys, *explain, ",".join(map(str, range(20))))
    assert rc == 2 and out == ""
    assert err == ("error: 1048576 subsets L of |K| = 20 vertices exceed "
                   "the coset cap 262144\n")
    rc, out, _ = run_cli(capsys, *explain, ",".join(map(str, range(19))))
    assert rc == 0
    assert "= 0.000000000000 (0 contributing subsets L)" in out


def test_ham_dump_refuses_a_clause_over_the_cap(capsys, tmp_path):
    # K_17 has degree 16, so each clause has 17 variables: refused before
    # its 2^17-entry truth table is listed
    path = tmp_path / "k17.txt"
    path.write_text("".join(f"{u} {v}\n" for u in range(17)
                            for v in range(u + 1, 17)))
    t0 = time.perf_counter()
    rc, out, err = run_cli(capsys, "ham", "dump", "--graph", f"file:{path}")
    assert time.perf_counter() - t0 < 0.2
    assert rc == 2 and out == ""
    assert err == "error: clause on 17 variables exceeds cap 16\n"


def test_classical_run_negative_seeds_keep_their_key(capsys):
    # the Philox key went through float64, so every negative seed keyed 0
    # and warned (pytest makes the warning an error)
    means = set()
    for seed in ("0", "-1", "-2"):
        rc, doc, _ = run_json(capsys, "classical", "run", "--graph",
                              "cycle:30", "--trials", "5", "--seed", seed)
        assert rc == 0 and doc["config"]["seed"] == int(seed)
        means.add(doc["stats"]["mean"])
    assert len(means) == 3


def test_qaoa_explain_at_64_vertices(capsys):
    # n = 64 fills a 64-bit word; masks are Python ints, so the boundary
    # must change nothing
    for subset in ("62,63", "0,63"):
        rc, doc, _ = run_json(capsys, "qaoa", "explain", "--graph",
                              "cycle:64", "--subset", subset,
                              "--gamma", "0.37", "--beta", "0.21")
        assert rc == 0
        assert doc["value"] == pytest.approx(zk_edge_d2((0.37, 0.21)),
                                             abs=1e-12)
        assert doc["breakdown"]["K"] == [int(v) for v in subset.split(",")]


def test_qaoa_explain_beyond_64_vertices(capsys):
    # make_hamiltonian used to refuse n > 64 (exit 2)
    rc, doc, _ = run_json(capsys, "qaoa", "explain", "--graph", "cycle:100",
                          "--subset", "0,1", "--gamma", "0.6", "--beta", "0.3")
    assert rc == 0
    assert abs(doc["value"] - zk_edge_d2((0.6, 0.3))) <= 1e-12
    assert abs(doc["value"] - -0.319849558030) <= 1e-12


def test_qaoa_explain_refuses_bad_subsets(capsys):
    # {0, 0} used to report <Z_{0}> while echoing [0, 0], and -1 failed
    # with "negative shift count"
    explain = ("qaoa", "explain", "--graph", "cycle:7", "--gamma", "0.37",
               "--beta", "0.21", "--subset")
    rc, _, err = run_cli(capsys, *explain, "0,0")
    assert rc == 2 and "repeats a vertex" in err
    rc, _, err = run_cli(capsys, *explain, "1,-1")
    assert rc == 2 and "negative vertex id" in err
    rc, _, err = run_cli(capsys, *explain, "0,7")
    assert rc == 2 and err.startswith("error:")


def test_qaoa_explain_names_out_of_range_vertex(capsys):
    # used to report "K = 0x81 not within 0..4", a mask, not a vertex
    rc, out, err = run_cli(capsys, "qaoa", "explain", "--graph", "cycle:5",
                           "--gamma", "0.37", "--beta", "0.21",
                           "--subset", "0,7")
    assert rc == 2 and out == ""
    assert "--subset vertex 7 is not within 0..4" in err


@pytest.mark.parametrize("subset", ["0,", ",1", "0,,1", " "])
def test_qaoa_explain_names_empty_subset_item(capsys, subset):
    # used to report "invalid literal for int() with base 10: ''"
    rc, out, err = run_cli(capsys, "qaoa", "explain", "--graph", "cycle:7",
                           "--gamma", "0.37", "--beta", "0.21",
                           "--subset", subset)
    assert rc == 2 and out == ""
    assert f"--subset has an empty item: {subset!r}" in err


def test_qaoa_explain_refuses_nan_angle(capsys):
    # used to print "= nan" and exit 0
    rc, _, err = run_cli(capsys, "qaoa", "explain", "--graph", "cycle:7",
                         "--subset", "0,1", "--gamma", "nan", "--beta", "0.21")
    assert rc == 2 and "must be finite" in err


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_qaoa_explain_refuses_non_finite_angle_without_families(capsys,
                                                                 gamma):
    # K = {0} on C5 has no family, so this printed <Z_{0}> = 0 and exited 0
    rc, out, err = run_cli(capsys, "qaoa", "explain", "--graph", "cycle:5",
                           "--subset", "0", "--gamma", gamma, "--beta", "1")
    assert rc == 2 and out == "" and "must be finite" in err


def test_out_writes_json_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    rc, stdout, _ = run_cli(capsys, "classical", "exact", "--degree", "2",
                            "--out", str(out), "--no-timestamp")
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["value"] == pytest.approx(0.95, abs=1e-12)
    # human summary still lands on stdout
    assert stdout.startswith("config ")
    assert "value 0.95" in stdout


def test_reproduce_degree_2(capsys):
    rc, doc, _ = run_json(capsys, "reproduce", "--degree", "2")
    assert rc == 0
    block = doc["degrees"]["2"]
    assert block["winner"] == "classical"
    assert block["holds"] is True
    assert block["classical"]["value"] == pytest.approx(0.95, abs=1e-6)
    assert block["quantum"]["value"] == pytest.approx(0.93937, abs=1e-4)
    assert block["separation"] == pytest.approx(
        block["classical"]["value"] - block["quantum"]["value"], abs=1e-15)
    assert doc["holds"] is True


def test_reproduce_degree_4(capsys):
    # both sides and the winner; the paper states no inequality at d = 4
    rc, doc, _ = run_json(capsys, "reproduce", "--degree", "4")
    assert rc == 0
    block = doc["degrees"]["4"]
    assert "holds" not in block
    assert block["classical"]["value"] == pytest.approx(0.898634223, abs=1e-8)
    assert block["quantum"]["value"] == pytest.approx(0.891347055, abs=1e-8)
    assert block["winner"] == "classical"
    assert doc["holds"] is True
    rc, out, _ = run_cli(capsys, "reproduce", "--degree", "4")
    assert rc == 0 and "degree 4: separation" in out


def test_reproduce_human_lines(capsys):
    rc, out, _ = run_cli(capsys, "reproduce", "--degree", "2",
                         "--no-timestamp")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("config ")
    assert any("classical wins" in ln for ln in lines)
    assert lines[-1] == "PASS"
