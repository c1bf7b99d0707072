"""The ``repro`` names README.md and DESIGN.md show resolve.

Every import of ``repro`` in a ``python`` code block of README.md runs, and
every attribute the block reads through a module it imports exists.  Each
block runs in a fresh interpreter, so a name that resolves only because
some other module happened to import its package first still fails; the
interpreters of all blocks start together.
Every backticked ``repro``-qualified name in README.md and DESIGN.md
(``repro.core.chunked``, ``repro.ckpt.manager.decode_delta``,
``repro.ckpt.temporal:TemporalEngine.encode``) imports and resolves too.
"""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
from functools import lru_cache

import pytest

from tests.source_index import attribute_chain, doc_text, python, readme_blocks
from tests.source_index import imports as index_imports

QUALIFIED = re.compile(r"`(repro(?:\.\w+)*(?::\w+(?:\.\w+)*)?)`")

# Runs a block's repro imports, then reads each attribute chain it names
# through an imported module: ``import repro`` then ``repro.compress``.
_CHECK = """
import importlib, sys
bound = {}
for module, attr, local in IMPORTS:
    value = importlib.import_module(module)
    if attr is None:  # import a.b binds a; import a.b as c binds a.b
        value = sys.modules[local] if local == module.split(".")[0] else value
    elif hasattr(value, attr):
        value = getattr(value, attr)
    else:  # from a import b, with b a submodule
        value = importlib.import_module(module + "." + attr)
    bound[local] = value
for chain in CHAINS:
    value = bound[chain[0]]
    for attr in chain[1:]:
        value = getattr(value, attr)
"""


def _imports_and_chains(tree: ast.Module):
    imports = [
        tuple(imported) for imported in index_imports(ast.walk(tree))
        if imported.module.split(".")[0] == "repro"
    ]
    bound = {local for _module, _attr, local in imports}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value, chain = attribute_chain(node)
            if isinstance(value, ast.Name) and value.id in bound:
                chains.add((value.id, *chain))
    return imports, sorted(chains)


@lru_cache(maxsize=None)
def _checks() -> dict[int, subprocess.Popen]:
    """Block index -> its running check, for every block that imports repro."""
    checks = {}
    for index, block in enumerate(readme_blocks()):
        imports, chains = _imports_and_chains(block)
        if imports:
            script = f"IMPORTS = {imports!r}\nCHAINS = {chains!r}\n{_CHECK}"
            checks[index] = python("-c", script, stderr=subprocess.PIPE)
    return checks


@pytest.mark.parametrize("index", range(len(readme_blocks())))
def test_readme_block_imports_resolve(index):
    if index not in _checks():
        pytest.skip("the block imports nothing from repro")
    check = _checks()[index]
    _, stderr = check.communicate(timeout=120)
    assert check.returncode == 0, stderr


def _resolve(name: str) -> object:
    module, _, qual = name.partition(":")
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        for attr in parts[end:] + (qual.split(".") if qual else []):
            value = getattr(value, attr)
        return value
    raise ModuleNotFoundError(name)


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_backticked_names_resolve(doc):
    names = sorted(set(QUALIFIED.findall(doc_text(doc))))
    assert names
    unresolved = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert not unresolved, f"{doc} names what does not resolve: " + ", ".join(unresolved)
