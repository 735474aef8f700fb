"""Every name a ``repro`` package or module exports in ``__all__`` resolves.

A deletion that leaves a stale re-export behind (``__all__`` naming a function
that is gone, or an ``__init__`` listing what it no longer imports) fails here
instead of at a user's ``from repro... import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attribute for attribute in exported if not hasattr(module, attribute)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
