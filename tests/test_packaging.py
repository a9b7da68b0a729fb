import ast
import importlib
import re
import sys
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import tsdfmap

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = Path(tsdfmap.__file__).resolve().parent


# distribution names whose import name differs
IMPORT_NAMES = {"PyYAML": "yaml"}


def project_table():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # older setuptools flag [tool.setuptools] as beta
        return read_configuration(PYPROJECT)["project"]


def test_version_is_stated_once():
    """pyproject.toml reads the version from tsdfmap.__version__."""
    project = project_table()
    assert "version" in project["dynamic"]
    assert project["version"] == tsdfmap.__version__


def unused_imports(source):
    """Names bound by a module's top-level imports that the module never reads.

    A name listed in `__all__`, or imported on a line carrying `noqa`,
    counts as used.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


def test_unused_imports_finds_only_unread_names():
    source = ("import os\nimport numpy as np\nfrom a import b, c\n"
              "from d import e  # noqa\nfrom f import g\n__all__ = ['g']\nprint(np, c)\n")
    assert unused_imports(source) == ["os", "b"]


def test_no_module_imports_a_name_it_never_uses():
    found = [f"{path.relative_to(PACKAGE)}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for name in unused_imports(path.read_text())]
    assert found == []


def imported_modules(source):
    """Top-level names of the absolute imports anywhere in a module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_declared_dependencies_are_the_imported_ones():
    """Every third-party import is declared, and every declaration is imported."""
    declared = set()
    for requirement in project_table()["dependencies"]:
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        declared.add(IMPORT_NAMES.get(name, name))
    imported = set().union(*(imported_modules(path.read_text())
                             for path in PACKAGE.rglob("*.py")))
    imported -= set(sys.stdlib_module_names) | {"tsdfmap"}
    assert declared == imported
    for name in sorted(declared):
        importlib.import_module(name)
