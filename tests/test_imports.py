"""Every name a module of fbns imports is used in that module."""

import ast
from pathlib import Path

import pytest

import fbns
import fbns.cli

MODULES = sorted(path for path in Path(fbns.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import math\nfrom os import path, sep as separator\nprint(path)\n"
    assert unused_imports(source) == ["math (line 1)", "separator (line 2)"]


def uncalled_definitions(sources: dict, exempt: set) -> list:
    """Module-level functions and classes of sources (module name -> source)
    whose name no source uses as a Name or an Attribute, less exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in used | exempt)


def acceptance_imports() -> set:
    """Names tests/test_acceptance.py imports from fbns."""
    tree = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module.startswith("fbns")
            for alias in node.names}


def test_every_definition_has_a_caller():
    # library code that only unit tests call belongs in the tests
    sources = {path.stem: path.read_text() for path in MODULES}
    assert uncalled_definitions(sources, acceptance_imports()) == []


def test_uncalled_definition_is_reported():
    sources = {"a": "def f():\n    return g()\nclass C:\n    pass\n",
               "b": "import a\ndef g():\n    return a.h()\ndef h():\n    pass\n"}
    assert uncalled_definitions(sources, set()) == ["a.C", "a.f"]
    assert uncalled_definitions(sources, {"f"}) == ["a.C"]


def config_reads(source: str) -> set:
    """Keys source reads as cfg["key"]."""
    return {node.slice.value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}


def test_every_config_key_is_read():
    # a config key that no runner reads is an option that does nothing
    keys = {key for schema in fbns.cli.SCHEMAS.values() for key in schema}
    source = Path(fbns.cli.__file__).read_text()
    assert sorted(keys - config_reads(source)) == []


def test_config_read_is_found():
    assert config_reads('cfg["a"]\ncfg.get("b")\nother["c"]\n') == {"a"}
