"""Keeps docs/API.md in sync with the package's public surface."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import gen_api_docs  # noqa: E402


class TestGenerator:
    def test_every_subpackage_renders(self):
        for name in gen_api_docs.SUBPACKAGES:
            section = gen_api_docs.render_subpackage(name)
            assert section.startswith(f"## `{name}`")

    def test_all_exports_resolve(self):
        """Every __all__ entry exists, is listed by dir(), and binds
        under a star import (the packages load their exports lazily)."""
        for name in ["repro", *gen_api_docs.SUBPACKAGES]:
            module = importlib.import_module(name)
            listed = dir(module)
            star = {}
            exec(f"from {name} import *", star)
            for symbol in getattr(module, "__all__", []):
                assert hasattr(module, symbol), f"{name}.{symbol}"
                assert symbol in listed, f"{name}.{symbol} not in dir()"
                assert star.get(symbol) is getattr(module, symbol), (
                    f"{name}.{symbol} not bound by import *"
                )

    def test_public_symbols_documented(self):
        """Every exported class/function carries a docstring."""
        undocumented = []
        for name in gen_api_docs.SUBPACKAGES:
            module = importlib.import_module(name)
            for symbol in getattr(module, "__all__", []):
                obj = getattr(module, symbol)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{name}.{symbol}")
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestCommittedDocument:
    def test_api_md_up_to_date(self):
        committed = REPO_ROOT / "docs" / "API.md"
        assert committed.exists(), "run: python tools/gen_api_docs.py"
        assert committed.read_text() == gen_api_docs.render(), (
            "docs/API.md is stale; regenerate with "
            "python tools/gen_api_docs.py"
        )
