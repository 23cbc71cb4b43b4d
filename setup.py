"""Package metadata for ``repro`` (no ``pyproject.toml``).

Editable install: ``pip install --no-deps --no-build-isolation -e .``
where the ``wheel`` package is installed (pip builds an editable wheel),
``python setup.py develop`` where it is not.  The serving path is
stdlib-only: networkx is needed by the reference core, the baselines and
joining-network metrics.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    extras_require={
        "networkx": ["networkx"],
    },
)
