"""The benchmark's tracer (``perfbench/tracing.py``) wraps engine names
by attribute; a name that moves or is renamed must fail here, not only
in a traced benchmark run."""

import importlib.util
from pathlib import Path

from framedskein import diagram, skein

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    # a class's own attribute, as ``Tracer.install`` reads it
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_tracer_wraps_and_restores_every_target():
    tracing = load_tracing()
    targets = [(owner, attr) for owner, attr, _, _ in tracing.TARGETS]
    originals = [current(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(current(owner, attr) is not orig
                   for (owner, attr), orig in zip(targets, originals))
        idx = tracer.begin("item")
        # through the modules, where the tracer put its wrappers
        skein.evaluate(diagram.parse_diagram("s1 s1 s1", "braid"),
                       skein.default_params("laurent"))
        tracer.end(idx)
    finally:
        tracer.uninstall()
    assert all(current(owner, attr) is orig
               for (owner, attr), orig in zip(targets, originals))
    calls = tracer.summary()["calls"]
    for name in ("evaluate", "parse", "construct", "canonical_code",
                 "detect_reduction", "apply_reduction", "smooth",
                 "switch_crossing"):
        assert calls[name] > 0, name
