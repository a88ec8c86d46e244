"""The top-down E-partition walk and the one-pass quotient check against
the generate-and-filter oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipckit.errors import NotAnEPartition
from ipckit.morphisms import epartitions, quotient
from ipckit.poset import Poset, _bits, canonical_code, enumerate_posets, root, upset_masks
import _oracle_epart as oracle


def test_epartitions_match_oracle_on_small_posets():
    # the same partitions, in whatever order the walk finds them, on every
    # poset of at most 6 points (equal sorted lists of equal length rule
    # out duplicates); every partition the walk yields passes the
    # independent checks, and a second call returns the same list
    for n in range(7):
        for p in enumerate_posets(n):
            parts = epartitions(p)
            assert sorted(parts) == sorted(oracle.epartitions(p)), p.up
            assert epartitions(p) == parts, p.up
            for part in parts:
                assert oracle.is_epartition(p, part)
                quotient(p, part)


def test_quotient_accepts_exactly_the_oracle_epartitions():
    # every set partition of every poset of at most 6 points: quotient
    # refuses exactly those the oracle's _blocks_ok refuses, and what it
    # returns is the oracle's block order with a valid projection
    tried = accepted = 0
    for n in range(7):
        for p in enumerate_posets(n):
            for part in oracle._set_partitions(n):
                masks = tuple(sum(1 << i for i in b) for b in part)
                sees = oracle._blocks_ok(p, list(masks))
                tried += 1
                if sees is None:
                    with pytest.raises(NotAnEPartition):
                        quotient(p, masks)
                    continue
                accepted += 1
                q, pm = quotient(p, masks)
                k = len(masks)
                assert q.up == tuple(
                    sum(1 << c for c in range(k) if b == c or sees[b][c])
                    for b in range(k)), (p.up, masks)
                assert pm.validate() and pm.is_surjective()
    assert (tried, accepted) == (68101, 14470)


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
    assert sorted(epartitions(p)) == sorted(oracle.epartitions(p)), p.up


def test_rooted_images_of_upsets_are_images_of_principal_upsets():
    # on every poset of at most 5 points, the rooted quotients of all
    # upsets and the quotients of the principal upsets give the same
    # isomorphism classes
    def classes(p, masks):
        out = set()
        for mask in masks:
            sub = p.restrict(mask)
            for part in epartitions(sub):
                q, _ = quotient(sub, part)
                if root(q) is not None:
                    out.add(canonical_code(q))
        return out

    for n in range(6):
        for p in enumerate_posets(n):
            assert classes(p, upset_masks(p)) == classes(p, set(p.up)), p.up
