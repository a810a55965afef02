"""The package declares what it has: its dependencies and its exports."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import localmaxcut

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localmaxcut"
TESTS = ROOT / "tests"


def _third_party_imports(directory):
    """The top-level modules the files of `directory` import, or name in
    a `pytest.importorskip` call, outside the standard library and the
    modules of the package and of `directory` itself."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                names.add(node.args[0].value.split(".")[0])
    local = {"localmaxcut"} | {p.stem for p in directory.glob("*.py")}
    return {n for n in names - local if n not in sys.stdlib_module_names}


def _declared(*extras):
    """The distribution names of pyproject's dependencies and of the
    optional-dependency groups `extras`."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    declared = project["dependencies"] + [
        r for e in extras for r in project["optional-dependencies"][e]]
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in declared}


def test_declared_dependencies_match_imports():
    assert _third_party_imports(PACKAGE) == _declared() == {"numpy"}


def test_test_extra_declares_every_test_import():
    # an undeclared test dependency turns its test into a silent skip
    assert _third_party_imports(TESTS) == _declared("test") == {
        "numpy", "pytest", "hypothesis", "networkx"}


def test_cli_import_leaves_scipy_unloaded():
    # nor does the tree series load numpy.fft: its DFTs are products with
    # small exponential matrices, and the first numpy.fft use costs about
    # 2 ms and 0.5 MiB
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import sys, localmaxcut.cli; print('scipy' in sys.modules); "
            "localmaxcut.cli.optimize_qaoa(3); "
            "print('numpy.fft' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


def test_hamiltonian_imports_no_package_module():
    # the other layers build on hamiltonian, so it imports none of them,
    # not even inside a function: the clause's support order and the
    # ball B(v) that fills it live in that one module
    imports = []
    for node in ast.walk(ast.parse((PACKAGE / "hamiltonian.py").read_text())):
        if isinstance(node, ast.Import):
            imports += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append("." * node.level + (node.module or ""))
    package = [name for name in imports
               if name.startswith(".") or name.split(".")[0] == "localmaxcut"]
    assert not package, f"hamiltonian imports {package}"


def test_statevector_takes_only_the_walk_from_hamiltonian():
    # verify's two sides stay independent by construction: the
    # statevector counts its diagonal from the graph, and takes from
    # hamiltonian only the pair walk, the butterflies and the element
    # budget, never a Hamiltonian, and from no other package module
    walk = {"pair_walk", "_butterflies", "block_entries", "BLOCK"}
    taken, others, names = set(), [], set()
    tree = ast.parse((PACKAGE / "statevector.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "localmaxcut"):
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                if source == ".hamiltonian":
                    taken.add(alias.name)
                elif (source, alias.name) != (".", "hamiltonian"):
                    others.append(f"{source} {alias.name}")
        elif isinstance(node, ast.Import):
            others += [a.name for a in node.names
                       if a.name.split(".")[0] == "localmaxcut"]
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if getattr(node.value, "id", None) == "hamiltonian":
                taken.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert not others, f"statevector imports {others}"
    assert taken <= walk, f"statevector takes {taken - walk} from hamiltonian"
    assert "DiagonalHamiltonian" not in names


def test_all_lists_every_public_binding():
    bound = {name for name, value in vars(localmaxcut).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(set(localmaxcut.__all__)) == len(localmaxcut.__all__)
    assert set(localmaxcut.__all__) == bound


def _names_used_by_package():
    """Every name a package module other than __init__ reads or looks up as
    an attribute; definitions and imports are not reads."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _names_imported_by_demos():
    names = set()
    for path in (ROOT / "demos").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "localmaxcut"):
                names.update(a.name for a in node.names)
    return names


def _public_definitions():
    """(module.name, name) of every public function and class, and every
    UPPER_CASE constant, defined at the top level of a package module."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                for name in (n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name)):
                    if name.isupper():
                        yield f"{path.stem}.{name}", name


def test_every_export_is_used_by_the_package_or_a_demo():
    used = _names_used_by_package() | _names_imported_by_demos()
    unused = set(localmaxcut.__all__) - used
    assert not unused, f"exported but used only by tests: {sorted(unused)}"
    # nor is any public function, class or module constant kept for tests
    # alone: a constant that only tests set is a knob no caller turns
    unread = sorted(q for q, name in _public_definitions() if name not in used)
    assert not unread, f"defined but used only by tests: {unread}"
