"""Every module of the package and every test file uses every name it
imports, every module defines every name it exports, and the package never
imports scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fbmlab"


def _annotation_names(node):
    """Names inside a string annotation such as ``-> "GridSpec"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        tree = ast.parse(node.value, mode="eval")
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {e.value for e in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


# __init__.py is left out: its imports are the package's re-exports
SOURCES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
SOURCES.update({f"tests/{p.name}": p for p in Path(__file__).parent.glob("*.py")})


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_no_unused_imports(module):
    assert unused_imports(SOURCES[module].read_text()) == []


def undefined_exports(source: str) -> list:
    """``__all__`` entries that no top-level statement of ``source`` binds."""
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                bound |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
                if isinstance(t, ast.Name) and t.id == "__all__":
                    exported = [e.value for e in node.value.elts]
    return sorted(name for name in exported if name not in bound)


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_all_names_are_defined(module):
    assert undefined_exports((PACKAGE / module).read_text()) == []


def test_undefined_export_is_reported():
    source = "from .fbm import GridSpec\nX = 1\n__all__ = ['GridSpec', 'X', 'f', 'gone']\ndef f():\n    pass\n"
    assert undefined_exports(source) == ["gone"]


def test_unused_import_is_reported():
    source = "from .fbm import GridSpec, as_hurst\n__all__ = ['f']\ndef f(g: 'GridSpec'):\n    pass\n"
    assert unused_imports(source) == ["as_hurst (line 1)"]


# Runs in a fresh interpreter: imports the package and runs rate experiments
# at t = 1 and t = 0.83, the exact sampler, the first-moment oracle at
# a != 0, the second-moment oracle at a = 0 and a != 0 and four CLI commands,
# one of them a simulate at t = 0.83; no scipy module may load.
_NUMPY_ONLY_SCRIPT = """
import contextlib, io, sys
import fbmlab, fbmlab.bounds, fbmlab.cli
from fbmlab import ExperimentPlan, GridSpec, indicator_measure, run_rate_experiment
from fbmlab import moment_oracle, sample_exact_batch

for t in (1.0, 0.83):
    plan = ExperimentPlan(0.75, (8, 16, 32), indicator_measure(0.0), t=t,
                          replicates=8, master_seed=1)
    run_rate_experiment(plan, threads=2)
sample_exact_batch(0.75, GridSpec(1.0, 16), 1, 4, 2)
assert moment_oracle(0.75, 1.0, 0.5, 1) > 0
assert moment_oracle(0.75, 1.0, 0.0, 2) > 0
assert moment_oracle(0.75, 1.0, 0.5, 2) > 0
for argv in (["simulate", "--H", "0.75", "--n", "64"],
             ["simulate", "--H", "0.75", "--n", "64", "--t", "0.83"],
             ["verify-bounds", "--suite", "cov", "--samples", "1000"]):
    assert fbmlab.cli.parse_and_dispatch(["--quiet", "--output-dir", sys.argv[1]] + argv) == 0
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert fbmlab.cli.parse_and_dispatch(["oracle", "--lemma", "moments", "--a", "0.5"]) == 0
assert float(out.getvalue()) > 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_numpy_only_paths_do_not_import_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# Runs in a fresh interpreter: the covariance certificate, the first- and
# second-moment oracles at a != 0 and the lemma A.1 oracle, all through the
# CLI; none of them draws a random number, so no numpy.random module may load.
_NO_RANDOM_SCRIPT = """
import contextlib, io, sys
import fbmlab.cli

argvs = (["--quiet", "--output-dir", sys.argv[1], "verify-bounds", "--suite", "cov"],
         ["oracle", "--lemma", "moments", "--a", "0.5", "--p", "1"],
         ["oracle", "--lemma", "moments", "--a", "0.5", "--p", "2"],
         ["oracle", "--lemma", "a1"])
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fbmlab.cli.parse_and_dispatch(argv) == 0, argv
print(",".join(sorted(m for m in sys.modules if m.startswith("numpy.random"))))
"""


def test_certificates_and_oracles_do_not_import_numpy_random(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _NO_RANDOM_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# Runs in a fresh interpreter: importing the package, the covariance
# certificate and the moment oracle start no thread pool, so neither
# concurrent.futures nor the logging it loads (0.7 MB) may be imported.
_NO_POOL_SCRIPT = """
import contextlib, io, sys
import fbmlab

def loaded():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("concurrent", "logging"))

print(",".join(loaded()))
import fbmlab.cli
argvs = (["--quiet", "--output-dir", sys.argv[1], "verify-bounds", "--suite", "cov"],
         ["oracle", "--lemma", "moments"])
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert fbmlab.cli.parse_and_dispatch(argv) == 0, argv
print(",".join(loaded()))
"""


def test_package_and_oracles_do_not_import_concurrent_futures(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _NO_POOL_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["", ""]
