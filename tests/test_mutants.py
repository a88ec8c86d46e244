"""The mutation table in mutants.py stays appliable: each old text occurs
once in its file, and each named test is defined where it says."""

from __future__ import annotations

import re

import mutants
from mutants import MUTANTS, ROOT


def test_mutation_table_matches_the_sources():
    assert MUTANTS
    for name, (path, old, new, tests) in MUTANTS.items():
        assert old != new, name
        assert (ROOT / path).read_text().count(old) == 1, name
        assert tests, name
        for test in tests:
            file, func = re.fullmatch(r"([^:]+)::(\w+)(?:\[.*\])?", test).groups()
            assert f"\ndef {func}(" in (ROOT / file).read_text(), test


def test_unknown_mutant_name_lists_the_known_ones(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("pytest started")

    monkeypatch.setattr(mutants.subprocess, "run", no_run)
    assert mutants.main(["closure-loops-swapped", "no-such-mutant"]) == 2
    out = capsys.readouterr().out
    assert "no-such-mutant" in out
    assert all(f"\n  {name}\n" in out for name in MUTANTS)
