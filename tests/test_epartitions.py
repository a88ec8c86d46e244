"""The top-down E-partition walk against the generate-and-filter oracle."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ipckit.morphisms import epartitions, is_epartition, quotient
from ipckit.poset import Poset, _bits, enumerate_posets
import _oracle_epart as oracle


def test_epartitions_match_oracle_on_small_posets():
    # same list, order included, on every poset of at most 6 points; and
    # every partition the walk yields passes the independent checks
    for n in range(7):
        for p in enumerate_posets(n):
            parts = epartitions(p)
            assert parts == oracle.epartitions(p), p.up
            for part in parts:
                assert is_epartition(p, part.blocks)
                quotient(p, part)


@st.composite
def _posets(draw):
    """A poset of 7 or 8 points: the transitive closure of a drawn set of
    pairs i < j, with the points then renumbered, so that point indices
    need not follow the order."""
    n = draw(st.sampled_from([7, 8]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=14))
    up = [1 << i for i in range(n)]
    for i in reversed(range(n)):
        for a, b in edges:
            if a == i:
                up[i] |= up[b]
    new = draw(st.permutations(range(n)))
    ups = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            ups[new[i]] |= 1 << new[j]
    return Poset(tuple(f"x{i}" for i in range(n)), tuple(ups))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_posets())
def test_epartitions_match_oracle_on_generated_posets(p):
    assert epartitions(p) == oracle.epartitions(p), p.up
