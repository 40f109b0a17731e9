"""Byte-exact outputs on two documents.

The expected texts under golden/ pin, on a document that uses every
construct, the part order of normal forms, the labels and variable order
`seqfree` mints, the node ids of `dot`, and the witness `check` finds
first; on a document whose intervals share endpoints (m, s, f, eq and
their converses), the first scenario and the schedule realized from it.
"""

from pathlib import Path

import pytest

from twf.cli import main

GOLDEN = Path(__file__).parent / "golden"


def assert_unchanged(document, command, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main([command, f"{document}.twf"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{document}.{command}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["normalize", "seqfree", "dot", "check"])
def test_output_is_unchanged(command, capsys, monkeypatch):
    assert_unchanged("golden", command, capsys, monkeypatch)


@pytest.mark.parametrize("command", ["scenario", "strong-check"])
def test_shared_endpoint_output_is_unchanged(command, capsys, monkeypatch):
    assert_unchanged("shared", command, capsys, monkeypatch)
