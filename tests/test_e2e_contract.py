"""The benchmark tracer's contract with the program, checked in tier-1.

``benchmarks/e2e/tracer.py`` times the layer boundaries by replacing
named attributes (``vars(owner)[attribute]``) with wrappers.  A rename
or a move of one of those attributes into a base class or helper would
otherwise surface only in the un-collected
``benchmarks/e2e/test_e2e_smoke.py`` or in a failed benchmark run; this
loads the tracer by path (read-only) and resolves every target.
"""

from __future__ import annotations

import importlib.util
import pathlib

TRACER = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "e2e" / "tracer.py"
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves_and_is_restored():
    tracer = _load_tracer().Tracer()
    targets = list(tracer._targets())
    assert len(targets) == 30
    for owner, attribute, name, _, _ in targets:
        assert attribute in vars(owner), (
            f"{name}: {getattr(owner, '__name__', owner)}.{attribute} is "
            "not defined on the owner itself"
        )
    originals = [vars(owner)[attribute] for owner, attribute, *_ in targets]
    with tracer.installed():
        assert len(tracer.leftover_wrappers()) == len(targets)
    assert tracer.leftover_wrappers() == []
    assert originals == [
        vars(owner)[attribute] for owner, attribute, *_ in targets
    ]
