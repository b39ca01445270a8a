"""Every name a package module imports at top level is read somewhere in it.

An import left behind by a deletion keeps a dependency alive that nothing
needs; this scan catches it without a linter.
"""

import ast
from pathlib import Path

import scattree

PACKAGE = Path(scattree.__file__).parent


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(name for name in imported if name not in read)


def test_scan_finds_an_unused_import():
    assert unused_imports("import re\nfrom math import lcm, gcd\nx = lcm(2, 3)\n") == ["gcd", "re"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_package_modules_read_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
