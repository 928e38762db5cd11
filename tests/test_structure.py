"""Guards on the shape of the library source, checked with `ast`."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "parlorproofs"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"hands.py", "oracle.py", "graphs.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "parlorproofs"
        if not internal:
            continue
        private = [a.name for a in node.names if a.name.startswith("_")]
        assert not private, f"{path.name}:{node.lineno} imports {private}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_lru_cache(path):
    for node in ast.walk(_tree(path)):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None)
        assert name != "lru_cache", f"{path.name}:{node.lineno} uses lru_cache"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_substitution_product(path):
    # Wild hands are decided by rule; a product over the deck's cards would
    # bring back the (V*S)^k substitution search.
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            names = [a.name for a in node.names]
            assert "product" not in names, f"{path.name}:{node.lineno}"
