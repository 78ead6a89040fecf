"""Package metadata (`pip install -e .`; works offline with --no-use-pep517)."""
import re
from pathlib import Path

from setuptools import find_packages, setup

version = re.search(r'__version__ = "([^"]+)"',
                    (Path(__file__).parent / "src/repro/_version.py").read_text())

setup(
    name="repro",
    version=version.group(1),
    description="AMRIC-style in situ lossy compression for AMR data (reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",      # what CI runs (3.11, 3.12)
    install_requires=["numpy"],
)
