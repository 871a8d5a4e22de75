"""Every relufem module imports on its own, the package's imports have no
cycle, and the names the benchmark's tracer wraps in relufem.mesh are
still defined there."""

import ast
import os
import pkgutil
import subprocess
import sys

import pytest

import relufem
from relufem import mesh

PACKAGE = os.path.dirname(relufem.__file__)
MODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE]))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone_in_a_fresh_interpreter(name):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    done = subprocess.run([sys.executable, "-c", f"import relufem.{name}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def top_level_imports(name):
    """The package modules that module `name` imports when it loads."""
    with open(os.path.join(PACKAGE, name + ".py"), encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    found = set()
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found & set(MODULES)


def test_module_imports_run_one_way():
    graph = {name: top_level_imports(name) for name in MODULES}
    assert "mesh" not in graph["_boxtree"] | graph["sampling"]
    done = set()
    while len(done) < len(graph):  # peel off modules whose imports are done
        ready = {name for name in graph if name not in done and graph[name] <= done}
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done |= ready


@pytest.mark.parametrize("path", ["PolytopeMesh.from_doc", "validate_mesh",
                                  "DirectedHyperplaneRegistry.build",
                                  "sample_cells"])
def test_tracer_targets_are_defined_in_mesh(path):
    # perfbench/tracer.py wraps each name it finds in vars() of its owner
    *owners, attr = path.split(".")
    owner = mesh
    for part in owners:
        owner = vars(owner)[part]
    assert attr in vars(owner)
