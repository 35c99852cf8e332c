"""The benchmark's tracer finds every name it wraps, and puts each back."""

import importlib.util
from pathlib import Path

import ehjscc
import ehjscc.cli  # noqa: F401  (the tracer wraps names on every module)

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_that_exist_and_restores_them():
    # the tracer wraps functions where the package's modules look them up
    # (policy.find_root, cli.capacity_sweep, ...); a cut that deletes or
    # renames one breaks its install, which only a traced benchmark run
    # would otherwise show
    tracer = _load_tracer().Tracer()
    try:
        tracer.install(ehjscc)
        patches = list(tracer._patches)
        assert len(patches) == 22
        assert len({(module.__name__, attr) for module, attr, _ in patches}) == 22
        for module, attr, original in patches:
            assert getattr(module, attr) is not original
    finally:
        tracer.uninstall()
    for module, attr, original in patches:
        assert getattr(module, attr) is original
