"""The package's modules share only public names, and `malice.__all__` lists them."""

import ast
import types
from pathlib import Path

import malice


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(Path(malice.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("malice")):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_all_is_sorted_and_names_every_public_name():
    public = {name for name, value in vars(malice).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert malice.__all__ == sorted(malice.__all__)
    assert set(malice.__all__) == public and len(malice.__all__) == len(public)
