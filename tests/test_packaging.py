import ast
import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import tsdfmap

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PACKAGE = Path(tsdfmap.__file__).resolve().parent


def test_version_is_stated_once():
    """pyproject.toml reads the version from tsdfmap.__version__."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # older setuptools flag [tool.setuptools] as beta
        project = read_configuration(PYPROJECT)["project"]
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
