"""The package's modules share only public names, and `malice.__all__` lists them."""

import ast
import subprocess
import sys
import types
from pathlib import Path

import malice

from _support import child_env, describe_child


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(Path(malice.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("malice")):
                private += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_all_is_sorted_and_names_every_public_name():
    for name in malice.__all__:  # the names of oracle and families are bound on first use
        getattr(malice, name)
    public = {name for name, value in vars(malice).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert malice.__all__ == sorted(malice.__all__)
    assert set(malice.__all__) == public and len(malice.__all__) == len(public)


def test_lazy_names_resolve_in_a_fresh_interpreter():
    probe = """
import sys
import malice
assert "malice.oracle" not in sys.modules and "malice.families" not in sys.modules
assert set(malice.__all__) <= set(dir(malice))
namespace = {}
exec("from malice import *", namespace)
missing = [name for name in malice.__all__ if namespace.get(name) is not getattr(malice, name)]
assert missing == [], missing
assert malice.GridSpec is sys.modules["malice.oracle"].GridSpec
assert malice.pigou is sys.modules["malice.families"].pigou
try:
    malice.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'malice' has no attribute 'no_such_name'", exc
else:
    sys.exit("an unknown name resolved")
from malice import families, oracle
assert oracle.minimax_gap is malice.minimax_gap and families.tight is malice.tight
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=child_env())
    assert proc.returncode == 0, describe_child(proc)
