"""The export surface resolves: every ``__all__`` name of every package
module exists, and ``from repro import *`` works."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    assert len(modules) > 1, "no repro.* modules found"
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (
                f"{module.__name__}.__all__ names missing {name!r}"
            )
    exec("from repro import *", {})
