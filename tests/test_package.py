"""The package's public surface: every exported name is importable."""

import raqdp


def test_every_exported_name_resolves():
    assert [name for name in raqdp.__all__ if not hasattr(raqdp, name)] == []


def test_star_import_provides_every_exported_name():
    namespace: dict = {}
    exec("from raqdp import *", namespace)
    assert set(raqdp.__all__) <= set(namespace)
