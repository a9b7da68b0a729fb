import warnings
from pathlib import Path

from setuptools.config.pyprojecttoml import read_configuration

import tsdfmap

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_is_stated_once():
    """pyproject.toml reads the version from tsdfmap.__version__."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # older setuptools flag [tool.setuptools] as beta
        project = read_configuration(PYPROJECT)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == tsdfmap.__version__
