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
from functools import lru_cache

from tests.source_index import (
    USERS,
    attribute_chain,
    exported,
    files,
    imports,
    modules,
    readme_blocks,
)

ALLOWED: dict[str, str] = {}


@lru_cache(maxsize=None)
def reexports() -> frozenset[str]:
    """``module.name`` for every re-export under ``src/repro``."""
    found = set()
    for module, file in modules().items():
        imported = {
            local
            for source, name, local in imports(file.tree.body, module, file.package)
            if name is not None
            and source.startswith("repro")
            and f"{source}.{name}" not in modules()
        }
        if file.package:
            found |= {f"{module}.{name}" for name in imported}
        else:
            found |= {f"{module}.{name}" for name in exported(file.tree) if name in imported}
    return frozenset(found)


def _reads(nodes, module: str | None, package: bool):
    """``module.name`` for every name *nodes* read through a module."""
    bound = {}  # local name -> the module it is bound to
    for source, name, local in imports(nodes, module, package):
        if name is None:  # import a.b binds a; import a.b as c binds a.b
            bound[local] = local if local == source.split(".")[0] else source
        elif f"{source}.{name}" in modules():
            bound[local] = f"{source}.{name}"
        elif not package:
            yield f"{source}.{name}"
    for node in nodes:
        if not isinstance(node, ast.Attribute):
            continue
        value, chain = attribute_chain(node)
        if not isinstance(value, ast.Name) or value.id not in bound:
            continue
        parts = bound[value.id].split(".") + chain
        # the longest prefix that is a module; the part after it is read through it
        for end in range(len(parts) - 1, 0, -1):
            if ".".join(parts[:end]) in modules():
                yield ".".join(parts[: end + 1])
                break


@lru_cache(maxsize=None)
def read_through() -> frozenset[str]:
    """``module.name`` for every read outside the tests, the module's own aside."""
    reads = set()
    for file in files(*USERS):
        reads |= {
            read
            for read in _reads(file.nodes, file.module, file.package)
            if read.rpartition(".")[0] != file.module
        }
    for block in readme_blocks():
        reads |= set(_reads(tuple(ast.walk(block)), None, False))
    return frozenset(reads)


def test_every_reexport_is_imported_through_its_module():
    unused = sorted(reexports() - read_through() - set(ALLOWED))
    assert not unused, "nothing imports through its module: " + ", ".join(unused)


def test_allow_list_names_only_reexports_nothing_imports():
    assert set(ALLOWED) <= reexports() - read_through()
    assert all(reason for reason in ALLOWED.values())
