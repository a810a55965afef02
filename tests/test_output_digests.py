"""The bytes of every command of the benchmark's seed-1 lists, pinned.

`output_digests.json` records, for each command of the four workload
lists in `bench/workloads.py` at seed 1, and of `OPTIMIZER_COMMANDS`,
its argv, its exit code and the SHA-256 of its stdout, with the numpy
version it was made under.  Every bench command passes `--json
--no-timestamp`; the optimizer's commands are the tables and the
report that no bench list runs, over the grid and the compass search at
other degrees, and carry the label "optimizer".  The test reruns the
list in process through `cli.main` and names every command whose digest
moved.  A change that means to move output bits
regenerates the file, so its diff shows which commands moved:

    PYTHONPATH=src python tests/test_output_digests.py

The bits rest on numpy's and libm's code paths as well as the package,
so a numpy upgrade can move digests with no package change; the
recorded version says when that may be why.
"""

import contextlib
import hashlib
import io
import json
import runpy
from pathlib import Path

import numpy as np

from localmaxcut import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().with_name("output_digests.json")
SEED = 1
OPTIMIZER_COMMANDS = (
    ["classical", "curve", "--degree", "2"],
    ["classical", "curve", "--degree", "3"],
    ["classical", "curve", "--degree", "10"],
    ["sweep", "--degree", "3"],
    ["reproduce", "--degree", "5", "--json", "--no-timestamp"],
)


def bench_commands():
    """(workload, argv) of every command of the benchmark's full lists
    at SEED, run from `bench/workloads.py`'s file, off the import path."""
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    return [(name, argv) for name, w in workloads["WORKLOADS"].items()
            for argv in w.commands(SEED, False)]


def pinned_commands():
    """(label, argv) of every pinned command: the bench lists, then the
    optimizer's."""
    return bench_commands() + [("optimizer", argv)
                               for argv in OPTIMIZER_COMMANDS]


def digests() -> dict:
    """The record of every command, run in this process through
    `cli.main` as a bench session runs it."""
    commands = []
    for name, argv in pinned_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        commands.append({
            "workload": name, "argv": argv, "exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()})
    return {"numpy": np.__version__, "commands": commands}


def test_every_bench_command_keeps_its_bytes():
    recorded = json.loads(DIGESTS.read_text())
    now = digests()
    assert [(c["workload"], c["argv"]) for c in now["commands"]] == [
        (c["workload"], c["argv"]) for c in recorded["commands"]], (
        "the pinned command list changed; regenerate the digests")
    moved = [f"{c['workload']}: localmaxcut {' '.join(c['argv'])} "
             f"(exit {was['exit']} -> {c['exit']})"
             for c, was in zip(now["commands"], recorded["commands"])
             if c != was]
    assert not moved, (
        f"{len(moved)} of {len(now['commands'])} outputs moved "
        f"(digests made under numpy {recorded['numpy']}, running "
        f"{now['numpy']}):\n" + "\n".join(moved))


if __name__ == "__main__":
    # one command a line, so the diff of a regenerated file names each
    # command that moved
    made = digests()
    rows = ",\n".join(json.dumps(c) for c in made.pop("commands"))
    DIGESTS.write_text(json.dumps(made)[:-1] + f', "commands": [\n{rows}\n]}}\n')
