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


def test_every_wrapped_name_is_called(monkeypatch, tmp_path):
    # a wrapped name that the package no longer calls would trace 0 calls
    # and hide its cost in its caller's self time
    layertrace = load_layertrace()
    modules = layertrace.lagrangas_modules()
    calls = {}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for _, mod, attr in layertrace.WRAPPED:
        calls[f"{mod}.{attr}"] = 0
        monkeypatch.setattr(modules[mod], attr,
                            counting(f"{mod}.{attr}", getattr(modules[mod], attr)))

    cli = modules["cli"]
    cfg = cli.parse_config("n_cells = 16\nt_end = 0.01\nsample_every = 0.005\n")
    cli.run_scenario(cfg, tmp_path)
    cli.mms_error(cfg, 16, 0.01)
    assert [key for key, n in calls.items() if n == 0] == []
