"""Byte-exact outputs on one document that uses every construct.

The expected texts under golden/ pin the part order of normal forms, the
labels and variable order `seqfree` mints, the node ids of `dot`, and the
witness `check` finds first.
"""

from pathlib import Path

import pytest

from twf.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("command", ["normalize", "seqfree", "dot", "check"])
def test_output_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code = main([command, "golden.twf"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"golden.{command}.out").read_text(encoding="utf-8")
