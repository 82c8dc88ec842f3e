"""Setuptools shim for tools that still invoke ``setup.py``.

All metadata lives in pyproject.toml.  ``pip install -e ".[test]"``
installs the package with its test extra; offline,
``pip install -e . --no-build-isolation --no-deps`` works wherever
setuptools >= 61 and ``wheel`` are importable (setuptools < 70.1 builds
even editable installs through ``bdist_wheel``).
"""

from setuptools import setup

setup()
