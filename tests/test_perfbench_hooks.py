"""Every layer hook and thread pool of the benchmark tracer resolves."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_perfbench_hook_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # for its dataclasses
    spec.loader.exec_module(bench)
    tracer = bench.Tracer()
    try:
        tracer.install(bench.CORE_HOOKS + bench.LAYER_HOOKS, bench.POOLS)
        assert tracer.unresolved == []
    finally:
        tracer.uninstall()
