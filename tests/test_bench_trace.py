"""The benchmark's traced mode names library functions by string; a
rename in the library would leave it silently tracing nothing."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing = [
        f"{layer}.{name}"
        for layer, name in _spans().TRACED
        if not callable(getattr(importlib.import_module(f"ordinalia.{layer}"), name, None))
    ]
    assert missing == []


def test_the_traced_step_method_exists():
    gapnfa = importlib.import_module("ordinalia.gapcode").GapNFA
    assert callable(getattr(gapnfa, "step", None))
