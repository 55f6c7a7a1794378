import types

import weakindex


def test_exports_resolve_and_exclude_submodules():
    scope: dict = {}
    exec("from weakindex import *", scope)  # raises on a listed name that does not resolve
    scope.pop("__builtins__")
    assert len(weakindex.__all__) == len(set(weakindex.__all__)) == len(scope)
    for name, value in scope.items():
        assert not isinstance(value, types.ModuleType), name
