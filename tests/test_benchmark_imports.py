"""Every module of the benchmark suite still imports.

``benchmarks/`` is not collected by the tier-1 run, so a library name a
benchmark imports could be deleted or renamed and only the smoke CI jobs
would notice.  Loading each file by path notices it here; the shared
helpers are conftest fixtures, so nothing but ``src`` needs to be on the
path.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda path: path.name)
def test_benchmark_module_imports(path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(f"benchmarks_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
