"""Every module under ``src/repro`` is reached from an entry point.

The entry points are the CLI (``repro.cli``, ``repro.__main__``) and every
file under ``benchmarks/``.  A module is reached when an entry point, or a
module already reached, imports it.  A package ``__init__`` that re-exports
a module does not reach it: ``from repro.ckpt import X`` reaches only the
module that defines ``X``.  A module nothing reaches is dead weight and
should be deleted rather than kept alive by its own tests.
"""

from __future__ import annotations

from functools import lru_cache

from tests.source_index import files, modules

# Reached by name, not by import: ``get_codec("rle")`` / ``get_codec("xor-delta")``.
ALLOWED = {
    "repro.lossless.fpc": "registered codecs reached by backend name",
    "repro.lossless.rle": "registered codecs reached by backend name",
}


def _targets(module: str, name: str | None) -> list[str]:
    """The modules an import of *name* from *module* reaches."""
    if name and f"{module}.{name}" in modules():
        return [f"{module}.{name}"]
    init = modules().get(module)
    if name is None or init is None or not init.package:
        return [module]
    # A name re-exported by a package reaches the module that defines it.
    return [module] + [
        target
        for source, alias, _ in init.imports
        if alias == name
        for target in _targets(source, alias)
    ]


@lru_cache(maxsize=None)
def reached_modules() -> frozenset[str]:
    todo = [modules()["repro.cli"], modules()["repro.__main__"], *files("benchmarks")]
    reached = {"repro.cli", "repro.__main__"}
    for source in todo:
        for module, alias, _ in source.imports:
            for target in _targets(module, alias):
                if target in modules() and target not in reached:
                    reached.add(target)
                    if not modules()[target].package:
                        todo.append(modules()[target])
    return frozenset(reached)


def test_every_module_is_reached_from_an_entry_point():
    reached = reached_modules()
    unreached = sorted(
        name
        for name, source in modules().items()
        if not source.package and name not in reached and name not in ALLOWED
    )
    assert not unreached, "no entry point imports: " + ", ".join(unreached)


def test_allow_list_names_only_modules_no_import_reaches():
    assert set(ALLOWED) <= set(modules())
    assert not set(ALLOWED) & reached_modules()
