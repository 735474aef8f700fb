"""Every wrap point of the end-to-end benchmark's tracer resolves, and uninstalls cleanly.

``benchmarks/e2e/tracing.py`` times each layer by patching the public callables
in ``WRAP_POINTS``.  A refactor that renames or moves one of them does not
fail the benchmark: that layer's metrics just read ``null``.  This test makes
the rename fail here instead, for every layer at once, and checks that
``uninstall`` puts back exactly what ``install`` replaced.
"""

from __future__ import annotations

import importlib

from benchmarks.e2e.tracing import WRAP_POINTS, Tracer


def _resolve(target: str):
    """``(owner, attribute, raw value)`` of one ``"module:dotted.attribute"`` target."""
    module_name, _, path = target.partition(":")
    *owners, attr = path.split(".")
    owner = importlib.import_module(module_name)
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def test_every_wrap_point_resolves_and_uninstall_restores_the_originals():
    points = [_resolve(target) for _name, target, _counts in WRAP_POINTS]
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing_layers == set()
        for owner, attr, raw in points:
            assert vars(owner)[attr] is not raw, f"{owner.__name__}.{attr} was not wrapped"
        # Module functions are also re-bound where another module imported them by name.
        patched = list(tracer._patched)
        assert len(patched) >= len(WRAP_POINTS)
    finally:
        tracer.uninstall()
    for owner, attr, raw in points:
        assert vars(owner)[attr] is raw, f"{owner.__name__}.{attr} was not restored"
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} was not restored"
