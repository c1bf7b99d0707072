"""Every name a module imports is named in it.

Every name a non-``__init__`` module under ``src/repro``, ``tests/``,
``benchmarks/`` or ``examples/`` imports must be named in that module or
listed in its ``__all__``.
"""

from __future__ import annotations

import ast

from tests.source_index import FUNCTIONS, SourceFile, exported, files


def _names_in(source: SourceFile) -> set[str]:
    named = {node.id for node in source.nodes if isinstance(node, ast.Name)}
    annotations = [
        getattr(node, "returns" if isinstance(node, FUNCTIONS) else "annotation")
        for node in source.nodes
        if isinstance(node, (*FUNCTIONS, ast.arg, ast.AnnAssign))
    ]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a string annotation such as "CheckpointManager"
                parsed = ast.parse(node.value, mode="eval")
                named |= {sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name)}
    return named


def test_every_import_is_named():
    unused = []
    for source in files():
        if source.package:
            continue
        named = _names_in(source) | set(exported(source.tree))
        unused += [
            f"{source.rel}: {imported.local}"
            for imported in source.imports
            if imported.local not in named
            and not (imported.name and imported.module == "__future__")
        ]
    assert not unused, "imported and never named: " + ", ".join(unused)
