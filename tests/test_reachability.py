"""``benchmarks/reachability.py`` matches each ``def`` to the code object a profile hook sees.

A fixture module is written, imported and exercised in process under a
profile function that records the code objects it enters -- what the hook
records in every interpreter -- and the source scan must name each of them
and leave only the function nobody called.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys

import pytest

from benchmarks import reachability

FIXTURE = '''\
import functools


def decorate(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)

    return wrapper


@decorate
@decorate
def decorated(value):
    return value + 1


class Shape:
    @property
    def area(self):
        return 4

    @staticmethod
    def unit():
        return 1

    class Inner:
        def method(self):
            return "inner"


def outer():
    def nested():
        return 2

    return nested()


def never_called():
    return None


def exercise():
    return decorated(1), Shape().area, Shape.unit(), Shape.Inner().method(), outer()
'''


@pytest.fixture
def fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    return path


def _load_and_run(path):
    """Import and exercise the fixture, recording every code object entered."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(reachability.code_key(frame.f_code))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        spec = importlib.util.spec_from_file_location("reachability_fixture", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.exercise()
    finally:
        sys.setprofile(previous)
    return module, seen


def test_every_def_is_keyed_like_its_code_object(fixture):
    functions = reachability.functions_in(fixture)
    module, _seen = _load_and_run(fixture)
    codes = {
        "decorated": inspect.unwrap(module.decorated).__code__,
        "Shape.area": module.Shape.area.fget.__code__,
        "Shape.unit": module.Shape.unit.__code__,
        "Shape.Inner.method": module.Shape.Inner.method.__code__,
        "never_called": module.never_called.__code__,
    }
    for qualname, code in codes.items():
        assert functions[reachability.code_key(code)].qualname == qualname
    # A decorated function's code object starts at its first decorator, the
    # report at its ``def``.
    decorated = functions[reachability.code_key(codes["decorated"])]
    assert codes["decorated"].co_firstlineno == decorated.line - 2
    assert decorated.lines == 2
    assert {function.qualname for function in functions.values()} == {
        "decorate", "decorate.<locals>.wrapper", "decorated", "Shape.area", "Shape.unit",
        "Shape.Inner.method", "outer", "outer.<locals>.nested", "never_called", "exercise",
    }


def test_only_the_function_nobody_called_is_unreached(fixture):
    functions = reachability.functions_in(fixture)
    _module, seen = _load_and_run(fixture)
    assert [function.qualname for function in reachability.unreached(functions, seen)] == ["never_called"]
    text = reachability.report(functions, seen, package_root=fixture.parent)
    line = FIXTURE.splitlines().index("def never_called():") + 1
    assert f"fixture.py:{line}  never_called  (2 lines)" in text
    assert text.endswith("never entered: 1 of 10 functions (2 of 27 function lines)\n")


def test_dumps_are_read_back_as_keys(tmp_path):
    (tmp_path / "1-a.reach").write_text("/x/a.py\t3\tf\n/x/a.py\t9\tg\n")
    (tmp_path / "2-b.reach").write_text("/x/a.py\t3\tf\n")
    assert reachability.read_dumps(tmp_path) == {("/x/a.py", 3, "f"), ("/x/a.py", 9, "g")}
