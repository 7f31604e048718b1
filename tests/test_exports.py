"""The package's export lists name only what exists."""
from __future__ import annotations

import importlib
import pkgutil

import qwtopo


def test_every_exported_name_resolves() -> None:
    modules = [qwtopo] + [
        importlib.import_module(f"qwtopo.{info.name}") for info in pkgutil.iter_modules(qwtopo.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
    assert len(modules) > 1
