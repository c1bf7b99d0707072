"""One parsed index of the tree, shared by every structural check.

The index holds each ``.py`` file of ``src/``, ``benchmarks/``,
``examples/`` and ``tests/`` once: its path, its top directory, its dotted
module name (for ``src/repro``), its source lines, its ``ast`` tree and the
tree's nodes.  It also holds the ``python`` code blocks of README.md, parsed,
and the text of README.md and DESIGN.md.  The four trees are read and
parsed the first time a check asks for a file, and never again in the
session.
"""

from __future__ import annotations

import ast
import gc
import os
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Code whose uses count: a name only the tests use is unused.
USERS = ("src", "benchmarks", "examples")
TOPS = (*USERS, "tests")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)

_ORACLE = "test oracle: a conservation law or closed form the tests check the code against"
#: The definitions ``test_definition_reachability`` lets only the tests use.
DEFINITIONS_ALLOWED = {
    "repro.apps.advection.AdvectionProxy.total_mass": _ORACLE,
    "repro.apps.shallow_water.ShallowWaterProxy.total_mass": _ORACLE,
    "repro.apps.shallow_water.ShallowWaterProxy.total_momentum": _ORACLE,
    "repro.apps.shallow_water.ShallowWaterProxy.total_energy": _ORACLE,
    "repro.apps.nbody.NBodyProxy.total_momentum": _ORACLE,
    "repro.apps.nbody.NBodyProxy.total_energy": _ORACLE,
    "repro.apps.heat.HeatDiffusionProxy.total_heat": _ORACLE,
    "repro.apps.climate.ClimateProxy.energy_proxy": _ORACLE,
    "repro.apps.base.state_allclose": "test oracle: restored state equals the saved state",
    "repro.analysis.random_walk.expected_random_walk_error": _ORACLE,
    "repro.core.errors.compression_rate": "test oracle: paper Eq. 5 as the paper states it",
    "repro.apps.fields.trend_field": "test input: fields with a known wavelet response",
    "repro.apps.fields.rough_field": "test input: fields with a known wavelet response",
    "repro.obs.sink.MemorySink": "fake: a sink the tests read spans back from",
    "repro.obs.sink.MemorySink.spans": "fake: a sink the tests read spans back from",
    "repro.lossless.pool.shared_pool_size": "isolation: tests check and reset the shared pool",
    "repro.lossless.pool.shutdown_shared_pool": "isolation: tests check and reset the shared pool",
    "repro.ckpt.manager.serialize_array_lossless": "golden and fuzz fixture: the lossless blob format",
    "repro.service.sharded.ShardedStore.add_shard": (
        "reachable subsystem: the membership change svc-rebalance exists for"
    ),
    "repro.service.wire.ServiceClient.ping": "reachable subsystem: the client side of the wire's ping op",
}


def module_name(path: Path) -> str | None:
    """The dotted name of a module under ``src/repro``, else None."""
    if not path.is_relative_to(SRC / "repro"):
        return None
    return ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")


class SourceFile:
    def __init__(self, path: Path):
        self.path = path
        self.rel = path.relative_to(ROOT).as_posix()
        self.top = path.relative_to(ROOT).parts[0]
        self.module = module_name(path)
        self.package = path.name == "__init__.py"
        self.text = path.read_text()
        self.lines = self.text.split("\n")
        self.tree = ast.parse(self.text, str(path))
        self.nodes = tuple(ast.walk(self.tree))  # in ``ast.walk`` order
        self.imports = imports(self.nodes, self.module, self.package)


@lru_cache(maxsize=None)
def _index() -> dict[str, tuple[SourceFile, ...]]:
    # The trees live for the whole session: build them with the collector
    # paused, then freeze them so that later collections skip their nodes.
    gc.collect()
    gc.disable()
    try:
        return {top: tuple(map(SourceFile, sorted((ROOT / top).rglob("*.py")))) for top in TOPS}
    finally:
        gc.freeze()
        gc.enable()


def files(*tops: str) -> tuple[SourceFile, ...]:
    """The ``.py`` files under *tops*, all four when none, sorted per top."""
    return tuple(f for top in tops or TOPS for f in _index()[top])


@lru_cache(maxsize=None)
def modules() -> dict[str, SourceFile]:
    """Dotted name -> file, for every module under ``src/repro``."""
    return {f.module: f for f in files("src") if f.module is not None}


class Member(NamedTuple):
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef
    source: SourceFile
    owner: str | None  # the qualified name of the class of a method


@lru_cache(maxsize=None)
def members() -> dict[str, Member]:
    """Qualified name -> each top-level function and class of ``src/repro``,
    and each function in such a class's body."""
    found = {}
    for module, source in modules().items():
        for node in source.tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                top = f"{module}.{node.name}"
                found[top] = Member(node, source, None)
                if isinstance(node, ast.ClassDef):
                    for sub in node.body:
                        if isinstance(sub, FUNCTIONS):
                            found[f"{top}.{sub.name}"] = Member(sub, source, top)
    return found


@lru_cache(maxsize=None)
def doc_text(name: str) -> str:
    """The text of README.md or DESIGN.md."""
    return (ROOT / name).read_text()


@lru_cache(maxsize=None)
def readme_blocks() -> tuple[ast.Module, ...]:
    return tuple(ast.parse(block) for block in CODE_BLOCK.findall(doc_text("README.md")))


def exported(tree: ast.Module) -> list[str]:
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


class Import(NamedTuple):
    module: str  # absolute
    name: str | None  # what ``from module import name`` takes; None for ``import module``
    local: str  # the name the import binds


def imports(nodes, module: str | None = None, package: bool = False) -> list[Import]:
    """Every import among *nodes*, relative ones resolved against *module*."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [Import(a.name, None, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = (module or "").split(".")
                base = base[: len(base) - node.level + (1 if package else 0)]
                source = ".".join(base + ([node.module] if node.module else []))
            found += [Import(source, a.name, a.asname or a.name) for a in node.names]
    return found


def attribute_chain(node: ast.Attribute) -> tuple[ast.expr, list[str]]:
    """``a.b.c`` -> (the node ``a``, ``["b", "c"]``)."""
    chain = [node.attr]
    value = node.value
    while isinstance(value, ast.Attribute):
        chain.append(value.attr)
        value = value.value
    return value, chain[::-1]


def python(*args: str, **kwargs) -> subprocess.Popen:
    """A fresh interpreter that imports ``repro`` from ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)
