"""Setup shim for offline editable installs.

All metadata lives in pyproject.toml.  ``pip install -e .`` builds in an
isolated environment, and pip's non-isolated paths need the ``wheel``
package; where neither is available, ``python setup.py develop``
installs the package (and the ``repro`` script) in editable mode with
setuptools alone.
"""

from setuptools import setup

setup()
