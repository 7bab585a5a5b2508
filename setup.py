"""Setuptools packaging for the QDockBank reproduction.

Kept as a plain setup.py (no PEP 517 build isolation required) so
``pip install -e .`` works offline.  Installs the ``repro`` package from
``src/`` and the ``repro-cache`` / ``repro-session`` / ``repro-worker`` /
``repro-serve`` console tools (:mod:`repro.cli.cache`,
:mod:`repro.cli.session`, :mod:`repro.cli.worker`, :mod:`repro.cli.serve`).
Performance is measured by ``perfbench/`` at the repository root, which is
not installed.
"""
from setuptools import find_packages, setup

setup(
    name="qdockbank-repro",
    version="1.0.0",
    description="From-scratch reproduction of QDockBank (SC 2025): VQE fragment folding, docking and analysis",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # Generator.spawn (multi-walker docking RNG substreams) needs NumPy 1.25.
    install_requires=["numpy>=1.25", "scipy", "networkx"],
    entry_points={
        "console_scripts": [
            "repro-cache=repro.cli.cache:main",
            "repro-session=repro.cli.session:main",
            "repro-worker=repro.cli.worker:main",
            "repro-serve=repro.cli.serve:main",
        ],
    },
)
