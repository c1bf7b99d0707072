"""The CLI surface is generated from the config dataclasses' field table.

Two guards: the parser still accepts exactly what it accepted before the
flags were generated (a committed structural snapshot, not ``--help``
text -- argparse formats help differently across Python versions), and a
generated flag's default is its field's default, so neither can drift.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import pytest

from repro.cli import _flags, add_flags, build_parser, from_flags
from repro.config import (
    CompressionConfig,
    ResilienceConfig,
    ServiceConfig,
    TemporalConfig,
)

SNAPSHOT = os.path.join(os.path.dirname(__file__), "fixtures", "cli_parser.json")


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


def parser_snapshot(parser: argparse.ArgumentParser) -> dict[str, list[list]]:
    """``subcommand -> [[flags or dest, type, choices, default, required,
    nargs, action], ...]``: positionals in order (their order is part of
    the command line), options sorted (theirs is not)."""
    out = {}
    for name, sub in _subparsers(parser).items():
        rows = [
            [
                sorted(a.option_strings) or a.dest,
                getattr(a.type, "__name__", None),
                list(a.choices) if a.choices is not None else None,
                a.default,
                a.required,
                a.nargs,
                type(a).__name__,
            ]
            for a in sub._actions
        ]
        positionals = [r for r in rows if isinstance(r[0], str)]
        options = sorted((r for r in rows if not isinstance(r[0], str)), key=str)
        out[name] = positionals + options
    return out


def test_parser_accepts_what_the_hand_written_parser_accepted():
    with open(SNAPSHOT, encoding="utf-8") as fh:
        expected = json.load(fh)
    got = json.loads(json.dumps(parser_snapshot(build_parser())))
    assert sorted(got) == sorted(expected) and len(got) == 19
    for name in expected:
        assert got[name] == expected[name], name


GENERATED = [
    (CompressionConfig, ""),
    (TemporalConfig, "temporal-"),
    (TemporalConfig, ""),
    (ResilienceConfig, ""),
    (ServiceConfig, ""),
]


@pytest.mark.parametrize("cls,prefix", GENERATED, ids=lambda v: getattr(v, "__name__", v))
def test_flag_defaults_are_field_defaults(cls, prefix):
    parser = argparse.ArgumentParser()
    add_flags(parser, cls, prefix=prefix)
    args = parser.parse_args([])
    flagged = list(_flags(cls, prefix))
    assert flagged
    for f, flag in flagged:
        raw = getattr(args, flag[2:].replace("-", "_"))
        if raw is None:  # unset: from_flags leaves the field to its default
            continue
        parse = f.metadata.get("parse")
        assert (parse(raw) if parse else raw) == f.default, f.name
    assert from_flags(cls, args, prefix=prefix) == cls()


def test_field_parsers_run_on_flag_values():
    ns = build_parser().parse_args
    config = from_flags(
        CompressionConfig, ns(["evaluate", "x.npy", "--levels", "3"])
    )
    assert config.levels == 3 and config == CompressionConfig()
    assert from_flags(
        CompressionConfig, ns(["evaluate", "x.npy", "--levels", "max"])
    ).levels == "max"
    serve = ["serve", "root", "--tenant", "t"]
    assert from_flags(ServiceConfig, ns(serve)) == ServiceConfig()
    sized = from_flags(ServiceConfig, ns(serve + ["--buffer-bytes", "2k"]))
    assert sized.buffer_capacity_bytes == 2048
    assert from_flags(
        ServiceConfig, ns(serve + ["--slo-p99", "0"])
    ).slo_latency_p99 is None


if __name__ == "__main__":  # regenerate: PYTHONPATH=src python tests/test_cli_flags.py
    snap = parser_snapshot(build_parser())
    body = ",\n".join(
        f' {json.dumps(name)}: [\n'
        + ",\n".join("  " + json.dumps(row) for row in rows)
        + "\n ]"
        for name, rows in sorted(snap.items())
    )
    with open(SNAPSHOT, "w", encoding="utf-8") as fh:
        fh.write("{\n" + body + "\n}\n")
    sys.exit(0)
