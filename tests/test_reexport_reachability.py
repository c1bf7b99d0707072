"""Every re-export under ``src/repro`` is imported through its module.

A re-export is a name a package ``__init__`` imports from a module of
``src/repro``, or an ``__all__`` entry that a module imports rather than
defines.  It stays only if something outside the tests reads it through
that module:

* a file in ``src/`` other than the module itself, except a package
  ``__init__`` (so each name has one hop to its definition);
* a file in ``benchmarks/`` or ``examples/``;
* a ``python`` code block of ``README.md``.

Reading it means ``from <module> import name``, or an attribute chain
through a bound module (``import repro`` then ``repro.compress``).  A
package importing a submodule (``from . import rle``, for the codec it
registers) imports a module, not a name, and is not a re-export.  Any
other re-export is a second import path for a name nobody needs two
paths to; tests import from the defining module.  ``ALLOWED`` names the
exceptions, each with its reason.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USERS = ("src", "benchmarks", "examples")
CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

ALLOWED: dict[str, str] = {}

FILES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def _module_of(path: Path) -> str | None:
    if path.is_relative_to(SRC / "repro"):
        return ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    return None


def _source(node: ast.ImportFrom, module: str | None, is_package: bool) -> str:
    """The absolute module a ``from ... import`` reads from."""
    if not node.level:
        return node.module or ""
    base = (module or "").split(".")
    base = base[: len(base) - node.level + (1 if is_package else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


@lru_cache(maxsize=None)
def reexports() -> frozenset[str]:
    """``module.name`` for every re-export under ``src/repro``."""
    found = set()
    for module, path in FILES.items():
        tree = ast.parse(path.read_text(), str(path))
        package = path.name == "__init__.py"
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                source = _source(node, module, package)
                if not source.startswith("repro"):
                    continue
                for alias in node.names:
                    if f"{source}.{alias.name}" not in FILES:
                        imported.add(alias.asname or alias.name)
        if package:
            found |= {f"{module}.{name}" for name in imported}
        else:
            found |= {f"{module}.{name}" for name in _exported(tree) if name in imported}
    return frozenset(found)


def _reads(tree: ast.Module, module: str | None, package: bool):
    """``module.name`` for every name *tree* reads through a module."""
    bound = {}  # local name -> the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    bound[top] = top
        elif isinstance(node, ast.ImportFrom):
            source = _source(node, module, package)
            for alias in node.names:
                target = f"{source}.{alias.name}"
                if target in FILES:
                    bound[alias.asname or alias.name] = target
                elif not package:
                    yield target
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            chain.append(value.attr)
            value = value.value
        if not isinstance(value, ast.Name) or value.id not in bound:
            continue
        parts = bound[value.id].split(".") + chain[::-1]
        # the longest prefix that is a module; the part after it is read through it
        for end in range(len(parts) - 1, 0, -1):
            if ".".join(parts[:end]) in FILES:
                yield ".".join(parts[: end + 1])
                break


@lru_cache(maxsize=None)
def read_through() -> frozenset[str]:
    """``module.name`` for every read outside the tests, the module's own aside."""
    reads = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            module = _module_of(path)
            tree = ast.parse(path.read_text(), str(path))
            reads |= {
                read
                for read in _reads(tree, module, path.name == "__init__.py")
                if read.rpartition(".")[0] != module
            }
    for block in CODE_BLOCK.findall((ROOT / "README.md").read_text()):
        reads |= set(_reads(ast.parse(block), None, False))
    return frozenset(reads)


def test_every_reexport_is_imported_through_its_module():
    unused = sorted(reexports() - read_through() - set(ALLOWED))
    assert not unused, "nothing imports through its module: " + ", ".join(unused)


def test_allow_list_names_only_reexports_nothing_imports():
    assert set(ALLOWED) <= reexports() - read_through()
    assert all(reason for reason in ALLOWED.values())
