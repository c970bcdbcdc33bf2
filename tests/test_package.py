"""The package's public surface: each module names its own API in `__all__`
once, and `ohmwalk` publishes their union and its version."""

import importlib
import pkgutil

import ohmwalk
from ohmwalk import circulant, exact, resistance, spectral, walks

MODULES = (circulant, exact, resistance, spectral, walks)
LISTED = [name for module in MODULES for name in module.__all__]


def test_the_modules_that_declare_an_api_are_the_ones_published():
    declaring = {info.name for info in pkgutil.iter_modules(ohmwalk.__path__)
                 if hasattr(importlib.import_module(f"ohmwalk.{info.name}"), "__all__")}
    assert declaring == {module.__name__.rpartition(".")[2] for module in MODULES}


def test_the_module_lists_are_disjoint():
    assert len(LISTED) == len(set(LISTED))


def test_each_name_is_listed_by_the_module_that_defines_it():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name


def test_the_package_publishes_the_union_and_its_version():
    assert sorted(ohmwalk.__all__) == sorted(["__version__", *LISTED])
    assert isinstance(ohmwalk.__version__, str)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ohmwalk, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_published_names():
    ns = {}
    exec("from ohmwalk import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(ohmwalk.__all__)
    assert all(ns[name] is getattr(ohmwalk, name) for name in ns)
