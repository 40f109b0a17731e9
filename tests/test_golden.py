"""Byte-exact outputs on a few documents.

The expected texts under golden/ pin, on a document that uses every
construct, the part order of normal forms, the labels and variable order
`seqfree` mints, the node ids of `dot`, and the witness `check` finds
first; on a document whose intervals share endpoints (m, s, f, eq and
their converses), the first scenario and the schedule realized from it.
The first scenario and its schedule are also pinned on a 30-step chain
and on two networks of Nebel's model A with 12 variables, one of them
built around a planted schedule, where the search meets dead ends
before the first scenario.
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


@pytest.mark.parametrize("document", ["chain30", "nebel12", "planted12"])
def test_first_scenario_is_unchanged(document, capsys, monkeypatch):
    assert_unchanged(document, "scenario", capsys, monkeypatch)
