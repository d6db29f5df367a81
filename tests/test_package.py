"""The package namespace: what ``from cascadekit import *`` binds."""

import inspect
import types

import cascadekit


def test_star_import_binds_only_classes_and_functions():
    assert cascadekit.__all__
    for name in cascadekit.__all__:
        value = getattr(cascadekit, name)
        assert inspect.isclass(value) or inspect.isfunction(value), name
    namespace = {}
    exec("from cascadekit import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, types.ModuleType)] == []
