"""The package version is stated in pyproject.toml and in gnnsearch.__version__;
the two must agree."""

from pathlib import Path

import pytest

import gnnsearch

tomllib = pytest.importorskip("tomllib")


def test_package_version_matches_pyproject():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as handle:
        declared = tomllib.load(handle)["project"]["version"]
    assert gnnsearch.__version__ == declared
