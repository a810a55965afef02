"""Each demo script runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert [d.name for d in DEMOS] == [
        "classical_vs_quantum.py", "engine_vs_statevector.py",
        "hamiltonian_tour.py", "quantum_landscape.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout
