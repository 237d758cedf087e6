"""Import structure of the greymatch package.

The modules import each other without cycles, and a private (single
underscore) name is imported across modules only from ``core``, which holds
the shared helpers; any other private helper used by two modules belongs in
``core`` or should be made public.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from greymatch.datasets import SEWAGE_VALUES

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "greymatch"

#: runs the command line with every ``scipy`` import failing
WITHOUT_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("scipy was imported")
from greymatch.cli import main
sys.exit(main(sys.argv[1:]))
"""
MODULES = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def intra_package_imports(module):
    """(imported module, imported name or None) for each greymatch import in ``module``."""
    tree = ast.parse(MODULES[module].read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "greymatch":
                source = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if source is None:
                    # ``from . import x``: a submodule, or a name of the package
                    yield (alias.name, None) if alias.name in MODULES else ("__init__", alias.name)
                else:
                    yield source, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "greymatch":
                    yield (parts[1] if len(parts) > 1 else "__init__"), None


def import_graph():
    return {module: {source for source, _ in intra_package_imports(module) if source != module}
            for module in MODULES}


def find_cycle(graph):
    """One import cycle as a list of modules, or None."""
    state = {}

    def visit(module, path):
        state[module] = "open"
        for target in sorted(graph[module]):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[module] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            cycle = visit(module, [module])
            if cycle:
                return cycle
    return None


def test_modules_found():
    assert {"core", "grey_twostep", "integral_matching", "cli"} <= set(MODULES)


def test_import_graph_is_acyclic():
    graph = import_graph()
    assert all(targets <= set(MODULES) for targets in graph.values()), graph
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_find_cycle_detects_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": set()}) is None


def test_private_names_imported_only_from_core():
    offenders = [f"{module} imports {source}.{name}"
                 for module in MODULES
                 for source, name in intra_package_imports(module)
                 if name is not None and name.startswith("_") and not name.startswith("__")
                 and source != "core"]
    assert not offenders, offenders


def run_python(*argv):
    """Run a fresh interpreter that imports greymatch from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def run_without_scipy(*argv):
    return run_python("-c", WITHOUT_SCIPY, *argv)


def test_runs_without_scipy(tmp_path):
    table = run_without_scipy("reproduce", "--table", "3", "--out-dir", str(tmp_path / "t3"))
    assert table.returncode == 0, table.stderr
    series = tmp_path / "sewage.csv"
    series.write_text("t,x1\n" + "".join(f"{t},{v}\n" for t, v in enumerate(SEWAGE_VALUES, 1)))
    fit = run_without_scipy("fit", str(series), "--model", "igvm", "--method", "grey",
                            "--init-strategy", "residual_correction",
                            "--out-dir", str(tmp_path / "fit"))
    assert fit.returncode == 0, fit.stderr



def test_cli_import_loads_no_multiprocessing():
    # only a Monte Carlo run with more than one worker needs a process pool
    run = run_python("-c", "import sys, greymatch.cli; print(sorted(m for m in sys.modules "
                           "if m.split('.')[0] == 'multiprocessing'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
