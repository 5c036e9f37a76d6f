"""The benchmark's tracer (``perfbench/tracing.py``) wraps package functions
by name; a renamed or deleted target would silently drop its spans from
``perfbench/run.py --trace 1``, so every name it wraps must resolve."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for module_name, path, name, _ in tracing.TARGETS:
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(obj, attr), f"{name}: {module_name}.{path} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), name
    # the tracer also swaps the harness's pool class for its own
    harness = importlib.import_module("latent_elevator.harness")
    assert isinstance(harness.ProcessPoolExecutor, type)
