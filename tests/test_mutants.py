"""The mutation table in mutants.py stays appliable: each old text occurs
once in its file, and each named test is defined where it says."""

from __future__ import annotations

import re

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
