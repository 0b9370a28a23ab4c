"""The examples in the library's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import coxarith


def test_module_doctests_pass():
    names = sorted(m.name for m in pkgutil.iter_modules(coxarith.__path__))
    assert "fields" in names
    attempted = 0
    for name in names:
        module = importlib.import_module(f"coxarith.{name}")
        failed, tried = doctest.testmod(module)
        assert failed == 0, name
        attempted += tried
    assert attempted >= 10
