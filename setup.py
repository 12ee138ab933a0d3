import pathlib
import re

from setuptools import find_packages, setup

ROOT = pathlib.Path(__file__).parent


def read_version() -> str:
    """Single-source the version from repro.__version__."""
    init = (ROOT / "src" / "repro" / "__init__.py").read_text(encoding="utf-8")
    match = re.search(r'^__version__ = "([^"]+)"', init, re.MULTILINE)
    if match is None:
        raise RuntimeError("__version__ not found in src/repro/__init__.py")
    return match.group(1)


setup(
    name="repro-point-polygon-join",
    version=read_version(),
    description=(
        "Reproduction of 'Adaptive Main-Memory Indexing for High-Performance "
        "Point-Polygon Joins' (EDBT 2020), with an online join service"
    ),
    long_description=(ROOT / "README.md").read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        # scipy backs the synthetic Voronoi polygon generators
        # (repro.datasets), which the tests and benches build on.
        "datasets": ["scipy>=1.8"],
        "test": ["pytest", "hypothesis", "scipy>=1.8"],
    },
)
