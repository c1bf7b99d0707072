"""What a user of ``repro-ckpt`` sees first: every ``--help`` renders, and
a file or argument the command cannot use ends in one ``error:`` line
with exit code 1, never a traceback."""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, main


def test_every_help_renders():
    # flag help comes from the config field table; a typo there (a stray
    # "%", a bad metavar) explodes only when a subparser formats its help
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) == 19
    top = parser.format_help()
    for name, subparser in sub.choices.items():
        assert name in top
        assert subparser.format_help().startswith(f"usage: repro-ckpt {name} ")


@pytest.fixture
def files(tmp_path, monkeypatch, smooth2d):
    """A working directory holding ``field.npy``, its ``field.rpz`` and a
    checkpoint directory ``ckpts``; ``nodir`` does not exist."""
    monkeypatch.chdir(tmp_path)
    np.save("field.npy", smooth2d)
    assert main(["compress", "field.npy", "field.rpz"]) == 0
    assert main(["checkpoint", "field.npy", "ckpts", "--step", "1"]) == 0
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["decompress", "missing.rpz", "o.npy"],
    ["inspect", "missing.rpz"],
    ["compress", "field.npy", "nodir/x.rpz"],
    ["compress", "field.npy", "x.rpz", "--trace", "nodir/t.jsonl"],
    ["decompress", "field.rpz", "nodir/o.npy"],
    ["restore", "ckpts", "nodir/o.npz"],
    ["quality", "--apps", "heat", "--generations", "2", "--bounds", "1e-2",
     "--out", "nodir/q.json"],
    ["svc-put", "unused.sock", "alice", "--step", "1", "a=missing.bin"],
    # the outdir is a file: the fetched blobs cannot be written under it
    ["svc-get", "unused.sock", "alice", "field.npy"],
], ids=lambda argv: argv[0])
def test_file_errors_end_in_one_error_line(files, argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_svc_call", lambda args, request: ([1], {"a": b"x"}))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: cannot " in err and "Traceback" not in err


@pytest.mark.parametrize("spec", ["alice:1m:abc", "alice:1m:nan", "alice:1m:-2", "alice:lots"])
def test_bad_tenant_spec_is_an_error_naming_it(tmp_path, spec, monkeypatch, capsys):
    def accepted(*args, **kwargs):  # fail instead of serving forever
        raise AssertionError(f"serve accepted --tenant {spec}")

    monkeypatch.setattr("repro.service.ingest.build_service", accepted)
    assert main(["serve", str(tmp_path), "--tenant", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"tenant spec {spec!r}" in err
