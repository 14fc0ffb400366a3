"""Legacy setup shim.

The offline environment has no ``wheel`` package, so PEP 517 editable
installs fail; ``pip install -e . --no-use-pep517 --no-build-isolation``
uses this shim instead. It declares no package metadata (there is no
pyproject.toml either): the project runs from a checkout with
``PYTHONPATH=src``, as the README and CI do.
"""

from setuptools import setup

setup()
