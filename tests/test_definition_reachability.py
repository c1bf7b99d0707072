"""Every definition under ``src/repro`` is used outside the tests.

A definition is a top-level function or class of a module under
``src/repro``, or a method of such a class whose name is not a dunder.  It
is used when code under ``src/``, ``benchmarks/`` or ``examples/`` names
it, by spelling:

* a bare name reaches only a top-level definition of its own module, never
  a method; other modules reach a definition through a ``from ... import``
  outside a package ``__init__`` (a re-export is not a use);
* an attribute reaches a definition of its name, except that an attribute
  that is not a call's callee does not reach a method (other than a
  property) when another ``src/repro`` class holds that name as data
  (``self.<name> = ...`` or a class-level field): ``x.used_bytes`` reads
  such a field as likely as it names the method;
* under ``benchmarks/``, a ``"repro.module:Qual.name"`` shim target
  reaches every part of it.

A use inside the definition's own body does not count, and neither does a
use inside another definition that is itself unused.  The unused set is
grown to a fixpoint, so a chain that only its own tests reach
(``f -> g -> C``) is found whole.  Such a definition is dead weight and
should be deleted rather than kept alive by its tests; ``ALLOWED`` names
the few that exist for the tests' sake, each with its reason.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import lru_cache, partial
from pathlib import Path
from typing import NamedTuple

# ALLOWED sits in the index because the parameter lint reads it too.
from tests.source_index import DEFINITIONS_ALLOWED as ALLOWED
from tests.source_index import SRC, USERS, SourceFile, files, members

SHIM = re.compile(r"^(?:repro[\w.]*)?:(\w+(?:\.\w+)*)$")


class Definition(NamedTuple):
    name: str
    path: Path
    first: int  # first line, decorators included
    last: int
    owner: str | None  # qualified name of the class of a method
    property: bool


class Use(NamedTuple):
    kind: str  # "name", "import", "callee", "attribute" or "shim"
    path: Path
    around: frozenset[str]  # the definitions whose bodies hold the use


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_property(node) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id in ("property", "cached_property"))
        or (isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"))
        for d in node.decorator_list
    )


@lru_cache(maxsize=None)
def definitions() -> dict[str, Definition]:
    """Qualified name -> definition, for every definition the rule covers."""
    found = {}
    for qual, (node, source, owner) in members().items():
        if owner is None or not _is_dunder(node.name):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            found[qual] = Definition(
                node.name, source.path, first, node.end_lineno, owner, _is_property(node)
            )
    return found


@lru_cache(maxsize=None)
def data_holders() -> dict[str, frozenset[str]]:
    """Attribute name -> the ``src/repro`` classes that hold it as data."""
    held = defaultdict(set)
    for qual, (node, _source, owner) in members().items():
        if owner is not None or not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                held[sub.target.id].add(qual)
            elif isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        held[target.id].add(qual)
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            ):
                held[sub.attr].add(qual)
    return {name: frozenset(classes) for name, classes in held.items()}


def _used_names(source: SourceFile):
    """``(name, line, kind)`` for every use of a name in *source*."""
    shims = source.top == "benchmarks"
    callees = {id(node.func) for node in source.nodes if isinstance(node, ast.Call)}
    for node in source.nodes:
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "callee" if id(node) in callees else "attribute"
        elif isinstance(node, ast.ImportFrom) and not source.package:
            yield from ((alias.name, node.lineno, "import") for alias in node.names)
        elif shims and isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = SHIM.match(node.value)
            if match:
                yield from ((part, node.lineno, "shim") for part in match.group(1).split("."))


def _reaches(use: Use, definition: Definition) -> bool:
    if use.kind == "name":
        return definition.owner is None and use.path == definition.path
    if use.kind == "import":
        return definition.owner is None
    if use.kind == "attribute" and definition.owner and not definition.property:
        return not data_holders().get(definition.name, frozenset()) - {definition.owner}
    return True


@lru_cache(maxsize=None)
def unused_definitions() -> frozenset[str]:
    defs = definitions()
    in_file = defaultdict(list)
    for qual, definition in defs.items():
        in_file[definition.path].append(qual)
    uses = defaultdict(list)
    for source in files(*USERS):
        for name, line, kind in _used_names(source):
            around = frozenset(
                qual
                for qual in in_file.get(source.path, ())
                if defs[qual].first <= line <= defs[qual].last
            )
            uses[name].append(Use(kind, source.path, around))
    reaching = {
        qual: [use.around for use in uses[d.name] if _reaches(use, d)]
        for qual, d in defs.items()
    }
    unused: frozenset[str] = frozenset()
    while True:
        grown = frozenset(
            qual
            for qual in defs
            if not any(qual not in around and not around & unused for around in reaching[qual])
        )
        if grown == unused:
            return unused
        unused = grown


def test_every_definition_is_used_outside_the_tests():
    unused = sorted(unused_definitions() - set(ALLOWED))
    assert not unused, "only tests use: " + ", ".join(unused)


def test_allow_list_names_only_definitions_nothing_uses():
    assert set(ALLOWED) <= set(definitions())
    assert set(ALLOWED) <= unused_definitions()
    assert all(reason for reason in ALLOWED.values())


def test_a_bare_name_or_a_field_read_does_not_reach_a_method():
    here, there = SRC / "repro" / "a.py", SRC / "repro" / "b.py"
    function = Definition("used_bytes", here, 1, 2, None, False)
    # ``used_bytes`` is a field of the tenant registry's per-tenant state
    method = Definition("used_bytes", here, 1, 2, "repro.a.Drain", False)
    prop = method._replace(property=True)
    use = partial(Use, around=frozenset())
    assert _reaches(use("name", here), function)
    assert not _reaches(use("name", there), function)
    assert not _reaches(use("name", here), method)
    assert _reaches(use("import", there), function)
    assert not _reaches(use("import", there), method)
    assert not _reaches(use("attribute", there), method)
    assert _reaches(use("attribute", there), prop)
    assert _reaches(use("callee", there), method)
