"""The ``repro`` names README.md and DESIGN.md show resolve.

Every import of ``repro`` in a ``python`` code block of README.md runs, and
every attribute the block reads through a module it imports exists.  Each
block runs in a fresh interpreter, so a name that resolves only because
some other module happened to import its package first still fails.
Every backticked ``repro``-qualified name in README.md and DESIGN.md
(``repro.core.chunked``, ``repro.ckpt.manager.decode_delta``,
``repro.ckpt.temporal:TemporalEngine.encode``) imports and resolves too.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CODE_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
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


def _blocks() -> list[str]:
    return CODE_BLOCK.findall((ROOT / "README.md").read_text())


def _imports_and_chains(block: str):
    imports = []
    tree = ast.parse(block)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [
                (alias.name, None, alias.asname or alias.name.split(".")[0])
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            imports += [
                (node.module, alias.name, alias.asname or alias.name) for alias in node.names
            ]
    bound = {local for _module, _attr, local in imports}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain, value = [node.attr], node.value
            while isinstance(value, ast.Attribute):
                chain.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in bound:
                chains.add((value.id, *reversed(chain)))
    return imports, sorted(chains)


@pytest.mark.parametrize("index", range(len(_blocks())))
def test_readme_block_imports_resolve(index):
    imports, chains = _imports_and_chains(_blocks()[index])
    if not imports:
        pytest.skip("the block imports nothing from repro")
    script = f"IMPORTS = {imports!r}\nCHAINS = {chains!r}\n{_CHECK}"
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr


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
    names = sorted(set(QUALIFIED.findall((ROOT / doc).read_text())))
    assert names
    unresolved = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert not unresolved, f"{doc} names what does not resolve: " + ", ".join(unresolved)
