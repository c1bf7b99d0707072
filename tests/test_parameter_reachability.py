"""Every parameter with a default is passed by some caller outside the tests.

A parameter with a default that no call in ``src/``, ``benchmarks/`` or
``examples/`` ever passes is an option with one value in use: it should be
a constant, and its reader should not have to reason about the values it
could take.  The rule covers every defaulted parameter of a top-level
function of ``src/repro``, and of a method of a top-level class there.

A call passes a parameter when it names it as a keyword, has a positional
argument at or past its index, or unpacks with ``*`` or ``**``.  Callees
match by spelling: ``f(...)`` and ``x.f(...)`` call every definition named
``f``, a class name calls that class's ``__init__`` (or the nearest one it
inherits from a class of ``src/repro``), and ``cls(...)`` inside a class
calls that class.  The first argument of ``partial``, ``to_thread`` and
``submit`` is a call too, with the remaining arguments; a partial is
called again later with the positional arguments it lacks, so it also
passes every positional parameter, but no keyword-only one.

A definition whose name is used other than as a call target (stored,
passed or returned as a value) is skipped: the callers of such a value
cannot be seen.  Annotations, ``isinstance`` checks, ``except`` clauses,
base classes and ``Name.attr`` lookups do not count as such uses.  A
function or class is used as a value by its bare name or as an attribute
of an imported name (``module.f``); a method by any attribute of its
name.  So ``report.f``, a field that shares a function's spelling, does
not hide the function.

An argument that forwards a defaulted parameter of the enclosing function
unchanged (``g(x=x)``) passes it only if the enclosing parameter is itself
passed; this is computed to a fixpoint.  Parameters of the definitions the
definition lint allows are exempt, but are not passed by being there: what
such a definition forwards counts only if its own callers pass it.
``ALLOWED`` names the injected fakes the tests pass in place of the real
thing, each with its reason.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from functools import lru_cache
from typing import NamedTuple

from tests.source_index import DEFINITIONS_ALLOWED, FUNCTIONS, USERS, files, members

#: Callables whose first argument is the function they call.
INDIRECT = {"partial", "to_thread", "submit"}

_FAKE = "injected fake: tests pass a fake in place of the real one"
ALLOWED = {
    "repro.ckpt.faults.FaultInjectingStore.__init__.sleep": _FAKE,
    "repro.ckpt.resilience.ResilientStore.__init__.sleep": _FAKE,
    "repro.obs.slo.SLOTracker.__init__.clock": _FAKE,
    "repro.parallel.executor.MultiprocessExecutor.__init__._pool_factory": _FAKE,
    "repro.service.tenants.TenantRegistry.__init__.clock": _FAKE,
    "repro.service.wire.ServiceClient.__init__.sleep": _FAKE,
}


class Param(NamedTuple):
    name: str
    index: int | None  # position among the arguments a call passes, or None
    keyword: bool  # may be passed by keyword


class Definition(NamedTuple):
    names: tuple[str, ...]  # the spellings that call it
    params: tuple[Param, ...]  # defaulted parameters only
    method: bool  # reached as an attribute of an instance or class


def _defaulted(node: ast.FunctionDef | ast.AsyncFunctionDef, skip: int) -> tuple[Param, ...]:
    args = node.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    found = [
        Param(arg.arg, i - skip, arg not in args.posonlyargs)
        for i, arg in enumerate(positional)
        if i >= first_default
    ]
    found += [
        Param(arg.arg, None, True)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return tuple(found)


def _is_static(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


@lru_cache(maxsize=None)
def definitions() -> dict[str, Definition]:
    """Qualified name -> definition, for every definition the rule covers."""
    classes = {m.node.name: m.node for m in members().values() if isinstance(m.node, ast.ClassDef)}
    found = {}
    for qual, (node, _source, owner) in members().items():
        if owner is None:
            if isinstance(node, FUNCTIONS):
                found[qual] = Definition((node.name,), _defaulted(node, 0), method=False)
            continue
        names, method = (node.name,), True
        if node.name == "__init__":
            cls = owner.rpartition(".")[2]
            names = tuple(c for c in classes if _init_owner(c, classes) == cls)
            method = False
        found[qual] = Definition(names, _defaulted(node, 0 if _is_static(node) else 1), method)
    return found


def _init_owner(name: str | None, classes: dict[str, ast.ClassDef]) -> str | None:
    """The class whose ``__init__`` a call of class *name* runs."""
    while name in classes and not any(
        isinstance(sub, FUNCTIONS) and sub.name == "__init__" for sub in classes[name].body
    ):
        bases = [b.id for b in classes[name].bases if isinstance(b, ast.Name)]
        name = bases[0] if bases else None
    return name


def _callee(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class _Call(NamedTuple):
    callee: str
    positional: int  # count of plain positional arguments
    keywords: frozenset[str]
    unpacks: bool
    forwards: tuple[tuple[str, str | int], ...]  # (enclosing param, keyword or position)
    enclosing: str | None  # qualified name of the enclosing definition


class _Scanner(ast.NodeVisitor):
    """Collects the calls in one file, and the names it uses as values."""

    def __init__(self, module: str | None):
        self.module = module
        self.calls: list[_Call] = []
        self.escaped: set[str] = set()  # bare names, and attributes of imported names
        self.escaped_attrs: set[str] = set()  # every other attribute
        self._imported: set[str] = set()
        self._scope: list[tuple[str | None, frozenset[str]]] = []  # (qual, defaulted params)
        self._class: list[tuple[str, str | None]] = []  # (name, first base)
        self._quiet: set[int] = set()  # ids of name nodes that are not value uses

    def visit_ClassDef(self, node):
        for base in node.bases:
            self._quiet_name(base)
        self._class.append((node.name, _callee(node.bases[0]) if node.bases else None))
        self.generic_visit(node)
        self._class.pop()

    def _function(self, node):
        qual = None
        if self.module is not None and not self._scope and len(self._class) <= 1:
            qual = ".".join([self.module, *(name for name, _ in self._class), node.name])
        self._quiet_tree(node.returns)
        self._scope.append((qual, frozenset(p.name for p in _defaulted(node, 0))))
        self.generic_visit(node)
        self._scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    # -- uses that are not values -------------------------------------------

    def _quiet_name(self, node):
        if isinstance(node, (ast.Name, ast.Attribute)):
            self._quiet.add(id(node))
        elif isinstance(node, ast.Tuple):
            for elt in node.elts:
                self._quiet_name(elt)

    def _quiet_tree(self, node):
        if node is not None:
            self._quiet.update(id(sub) for sub in ast.walk(node))

    def visit_arg(self, node):
        self._quiet_tree(node.annotation)

    def visit_AnnAssign(self, node):
        self._quiet_tree(node.annotation)
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        self._quiet_name(node.type)
        self.generic_visit(node)

    def visit_Import(self, node):
        self._imported.update((a.asname or a.name).split(".")[0] for a in node.names)

    def visit_ImportFrom(self, node):
        self._imported.update(a.asname or a.name for a in node.names)

    def visit_Attribute(self, node):
        of_import = isinstance(node.value, ast.Name) and node.value.id in self._imported
        if isinstance(node.value, ast.Name):
            self._quiet_name(node.value)
        if id(node) not in self._quiet and isinstance(node.ctx, ast.Load):
            (self.escaped if of_import else self.escaped_attrs).add(node.attr)
        self.generic_visit(node)

    def visit_Name(self, node):
        if id(node) not in self._quiet and isinstance(node.ctx, ast.Load):
            self.escaped.add(node.id)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node):
        name = _callee(node.func)
        if name in ("isinstance", "issubclass") and len(node.args) == 2:
            self._quiet_name(node.args[1])
        if name is not None:
            self._quiet_name(node.func)
            if name == "cls" and self._class:
                name = self._class[-1][0]
            elif name == "__init__" and _callee(getattr(node.func.value, "func", None)) == "super":
                name = self._class[-1][1] if self._class else None
            if name is not None:
                self._record(name, node.args, node.keywords)
        if name in INDIRECT and node.args and _callee(node.args[0]) is not None:
            self._quiet_name(node.args[0])
            # A partial is called later, with the positional arguments it lacks.
            self._record(
                _callee(node.args[0]), node.args[1:], node.keywords, rest=name == "partial"
            )
        self.generic_visit(node)

    def _record(self, callee, args, keywords, rest=False):
        enclosing, mine = self._scope[-1] if self._scope else (None, frozenset())
        forwards = []
        positional = 0
        unpacks = False
        for i, arg in enumerate(args):
            if isinstance(arg, ast.Starred):
                unpacks = True
                break
            positional += 1
            if isinstance(arg, ast.Name) and arg.id in mine:
                forwards.append((arg.id, i))
        named = set()
        for kw in keywords:
            if kw.arg is None:
                unpacks = True
            elif isinstance(kw.value, ast.Name) and kw.value.id in mine:
                forwards.append((kw.value.id, kw.arg))
            else:
                named.add(kw.arg)
        if rest:
            positional = sys.maxsize
        self.calls.append(
            _Call(callee, positional, frozenset(named), unpacks, tuple(forwards), enclosing)
        )


@lru_cache(maxsize=None)
def _scans() -> list[_Scanner]:
    scans = []
    for source in files(*USERS):
        scanner = _Scanner(source.module)
        scanner.visit(source.tree)
        scans.append(scanner)
    return scans


@lru_cache(maxsize=None)
def unpassed_parameters() -> frozenset[str]:
    """``qual.param`` for every covered parameter no caller passes."""
    defs = definitions()
    escaped = set().union(*(scan.escaped for scan in _scans()))
    escaped_attrs = escaped.union(*(scan.escaped_attrs for scan in _scans()))
    seen = {
        qual
        for qual, definition in defs.items()
        if not set(definition.names) & (escaped_attrs if definition.method else escaped)
    }
    callees = defaultdict(list)
    for qual in seen:
        for name in defs[qual].names:
            callees[name].append(qual)

    def passes(call: _Call, param: Param, passed: set[str]) -> bool:
        if call.unpacks or (param.keyword and param.name in call.keywords):
            return True
        forwarded = [
            mine for mine, where in call.forwards
            if where == param.index or (param.keyword and where == param.name)
        ]
        if forwarded:
            return call.enclosing not in seen or f"{call.enclosing}.{forwarded[0]}" in passed
        return param.index is not None and call.positional > param.index

    calls = [call for scan in _scans() for call in scan.calls if call.callee in callees]
    passed: set[str] = set()
    while True:
        grown = {
            f"{qual}.{param.name}"
            for call in calls
            for qual in callees[call.callee]
            for param in defs[qual].params
            if passes(call, param, passed)
        }
        if grown == passed:
            break
        passed = grown
    covered = {
        f"{qual}.{param.name}"
        for qual in seen - set(DEFINITIONS_ALLOWED)
        for param in defs[qual].params
    }
    return frozenset(covered - passed)


def test_every_defaulted_parameter_has_a_caller():
    unpassed = sorted(unpassed_parameters() - set(ALLOWED))
    assert not unpassed, "no caller passes: " + ", ".join(unpassed)


def test_allow_list_names_only_parameters_no_caller_passes():
    assert set(ALLOWED) <= unpassed_parameters()
    assert all(reason for reason in ALLOWED.values())


def test_a_same_named_attribute_does_not_hide_a_function():
    scan = _Scanner(None)
    scan.visit(ast.parse("import mod\nfrom pkg import g\nreport.f\nmod.h\ng\n"))
    assert "f" in scan.escaped_attrs and "f" not in scan.escaped
    assert {"g", "h"} <= scan.escaped
