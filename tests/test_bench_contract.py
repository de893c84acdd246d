"""The benchmark's traced run (`capnet_bench/run.py --trace 1`) wraps capnet
functions by module and name; renaming or deleting one of them breaks it.
This installs and removes its tracer over the real package."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "capnet_bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("capnet_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def lookup(module: str, path: str):
    owner = importlib.import_module(f"capnet.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_bench_tracer_wraps_and_restores_every_traced_function():
    tracing = load_tracing()
    targets = [(m, p) for m, p, _ in tracing.SPANNED + tracing.COUNTED]
    targets.append(("autodiff", "Tensor.__init__"))
    before = {t: lookup(*t) for t in targets}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [t for t in targets if lookup(*t) is before[t]] == []
    finally:
        tracer.uninstall()
    assert [t for t in targets if lookup(*t) is not before[t]] == []
