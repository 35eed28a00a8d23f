"""Setup shim so `pip install -e .` works without the `wheel` package.

The environment is offline; pip's PEP 517 editable path requires
``bdist_wheel`` which is unavailable, so this legacy shim lets
``pip install -e . --no-use-pep517`` (and plain ``python setup.py
develop``) install the package.  There is no pyproject.toml: the
package metadata and its dependencies are declared here.  The ``test``
extra is what the tier-1 suite imports (16 test modules use
``hypothesis`` at module top); CI installs the same three packages.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    description=(
        "Reproduction of Oaken: online-offline hybrid KV cache "
        "quantization for LLM serving"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "hypothesis"]},
)
