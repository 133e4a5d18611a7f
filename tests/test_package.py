"""The package's public surface: every exported name exists."""

import rinktrack


def test_every_exported_name_resolves():
    assert [name for name in rinktrack.__all__ if not hasattr(rinktrack, name)] == []
    assert len(set(rinktrack.__all__)) == len(rinktrack.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from rinktrack import *", namespace)
    assert set(rinktrack.__all__) <= namespace.keys()
