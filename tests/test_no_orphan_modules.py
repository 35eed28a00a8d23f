"""Every module in ``src/repro`` has an importer in ``src/repro``.

A module nothing in the package imports is a public surface kept alive
only by its tests (or by a package re-export nobody reads through).
The rule, checked statically with :mod:`ast`: every module except
package ``__init__``s, ``__main__`` entry points and the
``repro.commands`` verbs that ``commands/__init__`` registers must be
imported by some other non-``__init__`` module of ``src/repro``.  A
name imported through a package re-export (``from repro.hardware
import OverlapConfig``) is credited to the module that defines it, not
to the package.

``ALLOWED_ORPHANS`` names each remaining exception with its reason.
The test also fails when an allowed orphan gains an importer, so the
list only shrinks.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules with no importer in ``src/repro``, and why each stays.
ALLOWED_ORPHANS = {
    "repro.core.persistence": "undecided: consumer or examples/ "
    "(ROADMAP item 7)",
    "repro.eval.longcontext": "undecided: consumer or examples/ "
    "(ROADMAP item 7)",
    "repro.hardware.coremap": "undecided: consumer or examples/ "
    "(ROADMAP item 7)",
    "repro.hardware.cache_layout": "paper bench "
    "benchmarks/test_mmu_layout.py (ROADMAP item 9(c))",
    "repro.hardware.parallel": "paper bench benchmarks/test_parallel.py",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _parse_package() -> Tuple[Dict[str, ast.Module], Set[str]]:
    trees, packages = {}, set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        name = _module_name(path)
        trees[name] = ast.parse(path.read_text(), filename=str(path))
        if path.name == "__init__.py":
            packages.add(name)
    return trees, packages


TREES, PACKAGES = _parse_package()


def _absolute(node: ast.ImportFrom, importer: str) -> str:
    """The absolute module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module
    package = importer if importer in PACKAGES else importer.rpartition(
        "."
    )[0]
    parts = package.split(".")
    base = ".".join(parts[: len(parts) - (node.level - 1)])
    return f"{base}.{node.module}" if node.module else base


def _reexports(package: str) -> Dict[str, Tuple[str, str]]:
    """Names a package ``__init__`` binds at top level by import:
    bound name -> (source module, name there)."""
    bound = {}
    for node in TREES[package].body:
        if isinstance(node, ast.ImportFrom):
            base = _absolute(node, package)
            for alias in node.names:
                bound[alias.asname or alias.name] = (base, alias.name)
    return bound


REEXPORTS = {package: _reexports(package) for package in PACKAGES}


def _credited(base: str, name: str) -> Optional[str]:
    """The module that ``from base import name`` really depends on."""
    submodule = f"{base}.{name}"
    if submodule in TREES:
        return submodule
    if base in PACKAGES:
        source = REEXPORTS[base].get(name)
        return _credited(*source) if source else base
    return base if base in TREES else None


def _imported_modules(importer: str) -> Set[str]:
    found = set()
    for node in ast.walk(TREES[importer]):
        if isinstance(node, ast.Import):
            found.update(
                alias.name for alias in node.names if alias.name in TREES
            )
        elif isinstance(node, ast.ImportFrom):
            base = _absolute(node, importer)
            found.update(
                target
                for alias in node.names
                if (target := _credited(base, alias.name)) is not None
            )
    found.discard(importer)
    return found


def _registered_verbs() -> Set[str]:
    """``repro.commands.<verb>`` for every module in ``_MODULES``."""
    for node in TREES["repro.commands"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_MODULES"
            for t in node.targets
        ):
            return {
                f"repro.commands.{element.id}"
                for element in node.value.elts
            }
    raise AssertionError("commands/__init__ defines no _MODULES tuple")


def _orphans() -> Set[str]:
    importers = defaultdict(set)
    for module in TREES:
        if module in PACKAGES:
            continue
        for target in _imported_modules(module):
            importers[target].add(module)
    exempt = PACKAGES | _registered_verbs()
    return {
        module
        for module in TREES
        if module not in exempt
        and not module.endswith(".__main__")
        and not importers[module]
    }


def test_re_exported_names_are_credited_to_their_module():
    assert _credited("repro.hardware", "OverlapConfig") == (
        "repro.hardware.overlap"
    )
    assert _credited("repro.hardware.datapath", "DatapathTiming") == (
        "repro.hardware.datapath.timing"
    )
    assert _credited("repro.hardware", "overlap") == (
        "repro.hardware.overlap"
    )


def test_every_module_has_an_importer():
    unexpected = _orphans() - set(ALLOWED_ORPHANS)
    assert not unexpected, (
        f"modules no other module of src/repro imports: "
        f"{sorted(unexpected)} — give each a consumer, move it out of "
        f"src/, or delete it"
    )


def test_allowed_orphans_are_still_orphans():
    adopted = set(ALLOWED_ORPHANS) - _orphans()
    assert not adopted, (
        f"allowed orphans that now have an importer (or are gone): "
        f"{sorted(adopted)} — drop them from ALLOWED_ORPHANS"
    )
