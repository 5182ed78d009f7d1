"""Layering: the sweep path never reaches the scalar reference oracles, and
importing the CLI loads no module that only some runs need."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import relaysec

PACKAGE = Path(relaysec.__file__).resolve().parent
SWEEP_MODULES = ("model", "kernels", "criteria", "secrecy", "montecarlo")


def reference_uses(tree: ast.AST) -> list:
    """Imports of ``reference`` and every definition or mention of ``Precoder``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if "reference" in (node.module or "").split(".") or "reference" in names:
                found.append(f"line {node.lineno}: imports from reference")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: imports {alias.name}" for alias in node.names
                      if "reference" in alias.name.split(".")]
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "Precoder":
            found.append(f"line {node.lineno}: defines Precoder")
        elif isinstance(node, ast.Name) and node.id == "Precoder":
            found.append(f"line {node.lineno}: names Precoder")
        elif isinstance(node, ast.Attribute) and node.attr == "Precoder":
            found.append(f"line {node.lineno}: names Precoder")
    return found


@pytest.mark.parametrize("module", SWEEP_MODULES)
def test_sweep_module_does_not_reach_reference(module):
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert reference_uses(ast.parse(source)) == []


def test_checker_flags_reference_uses():
    tree = ast.parse("from .reference import zf_precoder\nx: Precoder = None\n")
    assert reference_uses(tree) == ["line 1: imports from reference", "line 2: names Precoder"]
    source = (PACKAGE / "reference.py").read_text(encoding="utf-8")
    assert any(hit.endswith("defines Precoder") for hit in reference_uses(ast.parse(source)))


def test_cli_import_leaves_out_pool_and_masked_arrays():
    # multiprocessing serves only multi-worker sweeps, relaysec.reference
    # only `relaysec verify`, and concurrent.futures and numpy.ma (which
    # np.unique imports) no sweep at all; each adds to every start-up.
    code = ("import sys, relaysec.cli; print(sorted({'concurrent.futures', 'multiprocessing', "
            "'numpy.ma', 'relaysec.reference'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"
