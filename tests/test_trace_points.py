"""The benchmark's layer tracer wraps package functions by name, so each one
must keep existing for ``perfbench/run.py --trace 1`` to work."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    layertrace = load_layertrace()
    modules = layertrace.lagrangas_modules()
    missing = [f"{mod}.{attr}" for _, mod, attr in layertrace.WRAPPED
               if not callable(getattr(modules[mod], attr, None))]
    # trace_sweep_workers swaps this one for its own worker
    if not callable(getattr(modules["cli"], "_sweep_worker", None)):
        missing.append("cli._sweep_worker")
    assert missing == []
