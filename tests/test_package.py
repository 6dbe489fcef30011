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
