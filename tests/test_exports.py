"""Export consistency: each module's __all__ and the README quickstart's
imports name objects that exist, and the README's config key table is the
one the config parser reads."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import spdelab
from spdelab.experiments import _READS

README = Path(__file__).parents[1] / "README.md"


def _module_exports():
    for info in pkgutil.iter_modules(spdelab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"spdelab.{info.name}")
        if hasattr(module, "__all__"):
            yield pytest.param(module.__name__, module.__all__, id=f"{info.name}.__all__")


def _quickstart_imports():
    text = README.read_text(encoding="utf-8")
    code = re.search(r"## Library quickstart\s+```python\n(.*?)```", text, re.S).group(1)
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "spdelab":
            names = [a.name for a in node.names]
            yield pytest.param(node.module, names, id=f"README imports from {node.module}")


@pytest.mark.parametrize("module,names", [*_module_exports(), *_quickstart_imports()])
def test_exported_names_exist(module, names):
    mod = importlib.import_module(module)
    assert names, f"{module}: nothing to check"
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module} does not export {missing}"


def test_readme_config_key_table_is_the_parsers():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config keys", 1)[1]
    rows = re.findall(r"^\| ([a-z-]+) \| `([^`]*)` \|$", section, re.M)
    assert {kind: tuple(keys.split()) for kind, keys in rows} == _READS
