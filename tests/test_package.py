import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import phenorank

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(phenorank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"phenorank.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/spans.py wraps phenorank functions at their lookup names; a
    # renamed or deleted one makes install() raise AttributeError
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "from spans import Tracer; Tracer().install()")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                           str(Path(phenorank.__file__).parents[1])],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("path", sorted(Path(phenorank.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_runtime_imports_only_numpy_and_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = [m for m in imported
               if m.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert outside == []
