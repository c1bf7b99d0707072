"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the CLI (``repro.cli``, ``repro.__main__``) and every
file under ``benchmarks/``.  A module is reached when an entry point, or a
module already reached, imports it.  A package ``__init__`` that re-exports
a module does not reach it: ``from repro.ckpt import X`` reaches only the
module that defines ``X``.  A module nothing reaches is dead weight and
should be deleted rather than kept alive by its own tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Reached by name, not by import: ``get_codec("rle")`` / ``get_codec("xor-delta")``.
ALLOWED = {
    "repro.lossless.fpc": "registered codecs reached by backend name",
    "repro.lossless.rle": "registered codecs reached by backend name",
}


FILES = {
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"): path
    for path in sorted((SRC / "repro").rglob("*.py"))
}


def _imports(path: Path, name: str) -> list[tuple[str, str | None]]:
    """``(module, imported name or None)`` for every import in *path*."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            base = base[: len(base) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found += [(module, alias.name) for alias in node.names]
    return found


def _targets(module: str, name: str | None) -> list[str]:
    """The modules an import of *name* from *module* reaches."""
    if name and f"{module}.{name}" in FILES:
        return [f"{module}.{name}"]
    init = FILES.get(module)
    if name is None or init is None or init.name != "__init__.py":
        return [module]
    # A name re-exported by a package reaches the module that defines it.
    return [module] + [
        target
        for source, alias in _imports(init, module)
        if alias == name
        for target in _targets(source, alias)
    ]


def reached_modules() -> set[str]:
    todo = [("repro.cli", FILES["repro.cli"]), ("repro.__main__", FILES["repro.__main__"])]
    todo += [(path.stem, path) for path in sorted((ROOT / "benchmarks").rglob("*.py"))]
    reached = {name for name, _ in todo}
    for name, path in todo:
        for module, alias in _imports(path, name):
            for target in _targets(module, alias):
                if target in FILES and target not in reached:
                    reached.add(target)
                    if FILES[target].name != "__init__.py":
                        todo.append((target, FILES[target]))
    return reached


def test_every_module_is_reached_from_an_entry_point():
    reached = reached_modules()
    unreached = sorted(
        name
        for name, path in FILES.items()
        if path.name != "__init__.py" and name not in reached and name not in ALLOWED
    )
    assert not unreached, "no entry point imports: " + ", ".join(unreached)


def test_allow_list_names_only_modules_no_import_reaches():
    assert set(ALLOWED) <= set(FILES)
    assert not set(ALLOWED) & reached_modules()
