"""The "one X, in Y" rules, the import weight of the write path, and the examples.

Each row of ``RULES`` is a pattern the code may match only where the row
allows: a file, or one line of it.  A row searches the ``.py`` files of its
roots, or every file there when ``every_file`` is set, a line at a time;
the table itself names what it bans, so its own lines are not searched.
A row with ``exactly_one`` also fails unless one line matches.
"""

from __future__ import annotations

import ast
import re
import subprocess
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest

from tests.source_index import ROOT, doc_text, files, python


class Rule(NamedTuple):
    name: str
    pattern: str
    allowed: dict[str, str | None]  # file -> the line it may match (None: any)
    reason: str
    roots: tuple[str, ...] = ("src/repro",)
    every_file: bool = False
    exactly_one: bool = False


RULES = (
    Rule(
        "One lister of ckpt/, in ckpt/journal.py", re.escape('list_keys("ckpt/")'),
        {"src/repro/ckpt/journal.py": None},
        "whoever lists the generations decides which of them count: a second"
        " lister is a second definition of \"committed\" (steps() and restore()"
        " once disagreed that way); use the journal's views instead",
    ),
    Rule(
        "One manifest reader, in ckpt/journal.py", re.escape("manifest_key("),
        {"src/repro/ckpt/journal.py": None, "src/repro/ckpt/manifest.py": r"def manifest_key\("},
        "a second manifest reader is a second definition of \"committed\" for"
        " whatever it reads (one once opened chain ancestors and torn"
        " generations steps() did not list); go through load_committed."
        " ckpt/manifest.py only defines the key.",
    ),
    Rule(
        "One parity coder, in ckpt/redundancy.py", r"encode_parity\(|rebuild_member\(",
        {"src/repro/ckpt/redundancy.py": None},
        "the parity module encodes, rebuilds and heals; a second caller of"
        " its coder is a second repair path with its own span, counters and"
        " write-back rule (the manager and verify once carried two)",
    ),
    Rule(
        "One commit publisher, in ckpt/journal.py", re.escape("CommitMarker("),
        {"src/repro/ckpt/journal.py": None},
        "the library seal and the group seal once wrote the commit protocol"
        " twice, in two barrier orders, and only one left the marker durable"
        " when the caller heard \"committed\"; both go through _publish",
    ),
    Rule(
        "One key layout, in ckpt/manifest.py", "_STEP_WIDTH",
        {"src/repro/ckpt/manifest.py": None},
        "every store key of a generation builds from generation_prefix; a"
        " second step width kept \"in lockstep\" by a comment is a second layout",
    ),
    Rule(
        "One typed-section reader, in core/container.py", re.escape("np.frombuffer(sections"),
        {"src/repro/core/container.py": None},
        "container.section_array turns a missing, ragged or wrongly sized"
        " section into a FormatError; a decoder reading sections by hand"
        " grows its own checks (three once did, each a little differently)",
    ),
    Rule(
        "One lane account, in ckpt/manager.py", "overlap_share=",
        {"src/repro/ckpt/manager.py": None},
        "writes and restores once each kept their own lane seconds, wait"
        " and overlap formula, and the restore's could read below zero;"
        " both report through _Run.report, the one line that sets it",
        exactly_one=True,
    ),
    Rule(
        "One read check, in Store.get_verified", r"\b(entry|marker)\.(verify|matches)\(", {},
        "a verified read returns only bytes that match what it was asked"
        " for; the service restore, the manager's blob ladder and classify"
        " once each hashed them again, and every restored byte twice",
    ),
    Rule(
        "One source of service sizing, in config.py", r"\bServiceConfig\.[a-z_]+",
        {"src/repro/config.py": None},
        "the ingest service's constructor once copied five ServiceConfig"
        " defaults into its own signature and checked two of them by hand,"
        " while rate_max_wait went unchecked; the service reads its"
        " ServiceConfig instead",
    ),
    Rule(
        "One compress call per codec, built by name",
        r"iter_compress|_iter_map_blocks|inspect\.signature", {},
        "a streaming iter_compress once sat beside compress, and every"
        " caller joined it straight back into bytes; get_codec once"
        " filtered keywords by signature, so a misspelled knob was"
        " dropped silently. Codecs write with compress, and get_codec"
        " calls every factory with (level, threads, block_bytes)",
    ),
    Rule(
        "One fault plan, in ckpt/faults.py", "ShardStormPlan|StormInjectingStore|StormWindow", {},
        "schedules and shard storms were once two plans and two injecting"
        " stores, each drawing from its own generator in call order, so"
        " under the service's worker threads a seed did not fix which"
        " faults fired; one FaultPlan places both, and every draw hashes"
        " what it decides",
        roots=("src/repro", "benchmarks", "tests"),
        every_file=True,
    ),
    Rule(
        "One fault plan's draws, in ckpt/faults.py", r"\._rng\b", {},
        "every draw of the fault plan hashes what it decides (resilience.py"
        " keeps its retry-jitter generator, hence this row looks at faults.py only)",
        roots=("src/repro/ckpt/faults.py",),
    ),
)


@lru_cache(maxsize=None)
def _table_lines() -> range:
    here = next(f for f in files("tests") if f.path == Path(__file__).resolve())
    table = next(
        node for node in here.tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "RULES"
    )
    return range(table.lineno, table.end_lineno + 1)


def _searched(rule: Rule):
    """``(path, lines)`` for every file *rule* searches."""
    for root in rule.roots:
        for file in files(root.split("/")[0]):
            if file.rel == root or file.rel.startswith(root + "/"):
                yield file.rel, file.lines
        if rule.every_file:
            for path in sorted((ROOT / root).rglob("*")):
                if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts:
                    text = path.read_text(errors="replace")
                    yield path.relative_to(ROOT).as_posix(), text.split("\n")


@pytest.mark.parametrize("rule", RULES, ids=[rule.name for rule in RULES])
def test_rule(rule: Rule):
    pattern = re.compile(rule.pattern)
    here = Path(__file__).relative_to(ROOT).as_posix()
    hits = [
        (path, number, line)
        for path, lines in _searched(rule)
        for number, line in enumerate(lines, 1)
        if pattern.search(line) and not (path == here and number in _table_lines())
    ]
    outside = [
        f"{path}:{number}: {line.strip()}"
        for path, number, line in hits
        if path not in rule.allowed
        or (rule.allowed[path] is not None and not re.match(rule.allowed[path], line))
    ]
    assert not outside, f"{rule.name} ({rule.reason}):\n" + "\n".join(outside)
    if rule.exactly_one:
        assert len(hits) == 1, f"{rule.name}: {len(hits)} lines match ({rule.reason})"


#: ``DESIGN §16``, ``DESIGN.md sections 11 and 14``, ``[DESIGN.md](DESIGN.md) §6``
CITATION = re.compile(
    r"\bDESIGN(?:\.md\]\(DESIGN\.md\)|\.md)?\s+(?:§|SS|sections?\s+)?(\d+)((?:\s+and\s+\d+)*)"
)


def test_design_citations_resolve():
    """Every DESIGN section the code, the tests and README.md cite exists."""
    sections = set(re.findall(r"^## (\d+)\. ", doc_text("DESIGN.md"), re.MULTILINE))
    texts = [(file.rel, file.text) for file in files()] + [("README.md", doc_text("README.md"))]
    cited = 0
    missing = []
    for path, text in texts:
        for match in CITATION.finditer(text):
            cited += 1
            for number in re.findall(r"\d+", match.group(1) + match.group(2)):
                if number not in sections:
                    line = text.count("\n", 0, match.start()) + 1
                    missing.append(f"{path}:{line}: §{number}")
    assert cited
    assert not missing, "DESIGN.md has no such section: " + ", ".join(missing)


def test_write_and_ingest_paths_import_no_apps_analysis_or_models():
    """Package facades once re-exported their whole subtree, so importing
    the checkpoint manager loaded all five proxy apps, the analysis drivers,
    the I/O models and the process pool; a facade keeps only the names
    something imports through it."""
    script = (
        "import sys\n"
        "import repro.ckpt.manager, repro.service.ingest\n"
        "heavy = ('analysis', 'apps', 'iomodel', 'parallel')\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.split('.')[:2] in [['repro', h] for h in heavy])\n"
        "assert not loaded, f'{len(loaded)} modules: {loaded}'\n"
    )
    check = python("-c", script, stderr=subprocess.PIPE)
    _, stderr = check.communicate(timeout=120)
    assert check.returncode == 0, stderr


#: Longest first, so the slowest starts before the others take the CPUs.
EXAMPLES = ("error_drift", "climate_checkpoint", "scaling_estimate", "quickstart")


def test_examples_run_and_leave_the_tree_as_it_was():
    """Nothing else imports the examples, so an API one of them uses could
    go away unnoticed; each must exit 0 and leave the tree as it was.  They
    run side by side."""
    status = ["git", "-C", str(ROOT), "status", "--porcelain"]
    try:
        before = subprocess.run(status, capture_output=True, text=True)
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if before.returncode:
        pytest.skip("the tree is not a git checkout")
    runs = {
        name: python(
            f"examples/{name}.py", cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE
        )
        for name in EXAMPLES
    }
    try:
        errors = {name: run.communicate(timeout=600)[1] for name, run in runs.items()}
    finally:
        for run in runs.values():
            run.kill()
    failed = {name: errors[name][-2000:] for name, run in runs.items() if run.returncode}
    assert not failed, failed
    assert subprocess.run(status, capture_output=True, text=True).stdout == before.stdout
