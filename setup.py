"""Setuptools entry point.

The pinned offline environment ships setuptools but not the ``wheel``
package, so PEP 517/660 builds (which need ``bdist_wheel``) cannot run.
Keeping a classic ``setup.py`` lets ``pip install -e .`` fall back to the
legacy ``setup.py develop`` code path, which works fully offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Monomorphism-based CGRA mapping via space and time decoupling "
        "(DATE 2025 reproduction)"
    ),
    author="Reproduction Authors",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={"test": ["pytest", "hypothesis", "networkx>=3.0", "cffi",
                             "setuptools"]},
    entry_points={"console_scripts": [
        "repro-map=repro.cli:main",
        "repro-serve=repro.service.cli:main",
    ]},
)
