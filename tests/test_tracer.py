"""The benchmark's per-layer tracer still finds every layer it names.

bench/tracer.py wraps the functions listed in its LAYERS table by dotted
path, so renaming one of them in the package breaks ``--trace``.  This test
puts that check in the main suite."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_restores_it():
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.install()
    try:
        for name, (modname, paths) in tracer.LAYERS.items():
            for path in paths:
                owner, attr = tracer._resolve(modname, path)
                assert hasattr(getattr(owner, attr), "__wrapped__"), f"{name}: {path}"
    finally:
        t.uninstall()
    for modname, paths in tracer.LAYERS.values():
        for path in paths:
            owner, attr = tracer._resolve(modname, path)
            assert not hasattr(getattr(owner, attr), "__wrapped__"), path
