"""The examples in the library's docstrings run and pass, and every name in a
module's __all__ exists."""

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
        stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not stale, (name, stale)
        failed, tried = doctest.testmod(module)
        assert failed == 0, name
        attempted += tried
    assert attempted >= 10
