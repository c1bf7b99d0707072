"""Every definition under ``src/repro`` is used outside the tests.

A definition is a top-level function or class of a module under
``src/repro``, or a method of such a class whose name is not a dunder.  It
is used when code under ``src/``, ``benchmarks/`` or ``examples/`` names
it: as a bare name, as an attribute, in a ``from ... import`` outside a
package ``__init__`` (a re-export is not a use), or, under
``benchmarks/``, in a ``"repro.module:Qual.name"`` shim target.  Names
match by spelling, so a method is used when any attribute of that name is.

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
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USERS = ("src", "benchmarks", "examples")
SHIM = re.compile(r"^(?:repro[\w.]*)?:(\w+(?:\.\w+)*)$")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

_ORACLE = "test oracle: a conservation law or closed form the tests check the code against"
ALLOWED = {
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
    "repro.lossless.pool.shared_pool_size": "isolation: tests check and reset the shared pool",
    "repro.lossless.pool.shutdown_shared_pool": "isolation: tests check and reset the shared pool",
    "repro.ckpt.manager.serialize_array_lossless": "golden and fuzz fixture: the lossless blob format",
    "repro.service.sharded.ShardedStore.add_shard": (
        "reachable subsystem: the membership change svc-rebalance exists for"
    ),
    "repro.service.wire.ServiceClient.ping": "reachable subsystem: the client side of the wire's ping op",
}


class Definition(NamedTuple):
    name: str
    path: Path
    first: int  # first line, decorators included
    last: int


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@lru_cache(maxsize=None)
def definitions() -> dict[str, Definition]:
    """Qualified name -> definition, for every definition the rule covers."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            members = [(f"{module}.{node.name}", node)]
            if isinstance(node, ast.ClassDef):
                members += [
                    (f"{module}.{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, FUNCTIONS) and not _is_dunder(sub.name)
                ]
            for qual, member in members:
                first = min([member.lineno] + [d.lineno for d in member.decorator_list])
                found[qual] = Definition(member.name, path, first, member.end_lineno)
    return found


def _used_names(path: Path, shims: bool):
    """``(name, line)`` for every use of a name in *path*."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif shims and isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = SHIM.match(node.value)
            if match:
                yield from ((part, node.lineno) for part in match.group(1).split("."))


@lru_cache(maxsize=None)
def unused_definitions() -> frozenset[str]:
    defs = definitions()
    in_file = defaultdict(list)
    for qual, definition in defs.items():
        in_file[definition.path].append(qual)
    # For each use of a defined name, the definitions whose bodies hold it.
    holders = defaultdict(list)
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _used_names(path, shims=top == "benchmarks"):
                holders[name].append(
                    frozenset(
                        qual
                        for qual in in_file.get(path, ())
                        if defs[qual].first <= line <= defs[qual].last
                    )
                )
    unused: frozenset[str] = frozenset()
    while True:
        grown = frozenset(
            qual
            for qual, definition in defs.items()
            if not any(
                qual not in around and not around & unused
                for around in holders[definition.name]
            )
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
