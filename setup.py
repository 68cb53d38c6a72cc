"""Legacy setup shim.

The environment has no ``wheel`` package and no network, so PEP-517
editable installs cannot build; this shim lets
``pip install -e . --no-build-isolation --no-use-pep517`` work offline.
All real metadata lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="6.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
