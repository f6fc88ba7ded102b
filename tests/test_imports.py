"""The package's modules share only public names."""

import ast
from pathlib import Path

import malice


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(Path(malice.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("malice")):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []
