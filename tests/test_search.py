"""The fused top-down image search against the restrict-per-candidate
oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipckit.budget import WorkMeter
from ipckit.catalog import catalog_get
from ipckit.morphisms import find_pmorphism, image_of_subposet, image_of_upset
from ipckit.poset import Poset, _bits, build_poset, enumerate_posets, enumerate_rooted
import _oracle_search as oracle

HOSTS5 = [p for n in range(6) for p in enumerate_posets(n)]
ROOTED4 = [p for n in range(1, 5) for p in enumerate_rooted(n)]
CATALOG_TARGETS = (
    [f"P({i})" for i in (1, 2, 3)] + ["P2", "P3"]
    + [f"K({i})" for i in range(1, 8)] + [f"G({i})" for i in range(1, 7)]
    + [f"BW2({i})" for i in range(1, 12)])
MODES = [(image_of_upset, oracle.image_of_upset),
         (image_of_subposet, oracle.image_of_subposet)]


def test_images_match_oracle_on_small_posets():
    # every host of at most 5 points against every rooted target of at most 4
    for host in HOSTS5:
        for target in ROOTED4:
            for new, old in MODES:
                assert new(target, host) == old(target, host), (
                    new.__name__, host.up, target.up)


POSETS67 = enumerate_posets(6) + enumerate_posets(7)


@st.composite
def _hosts(draw):
    """A poset of 6 or 7 points with its points renumbered, so that point
    indices need not follow the order as they do in enumerate_posets."""
    p = draw(st.sampled_from(POSETS67))
    new = draw(st.permutations(range(p.n)))
    ups = [0] * p.n
    for i in range(p.n):
        for j in _bits(p.up[i]):
            ups[new[i]] |= 1 << new[j]
    return Poset(p.elements, tuple(ups))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_hosts(), st.sampled_from(CATALOG_TARGETS))
def test_images_match_oracle_on_generated_hosts(host, name):
    target = catalog_get(name)
    for new, old in MODES:
        assert new(target, host) == old(target, host), new.__name__


@pytest.mark.parametrize("surjective", [False, True])
def test_pmorphism_nodes_match_oracle(surjective):
    posets = [p for n in range(5) for p in enumerate_posets(n)]
    for src in posets:
        for dst in posets:
            m_new, m_old = WorkMeter(), WorkMeter()
            new = find_pmorphism(src, dst, surjective, m_new)
            old = oracle.find_pmorphism(src, dst, surjective, m_old)
            assert m_new.spent == m_old.spent, (src.up, dst.up)
            assert (new and new.mapping) == (old and old.mapping)


def test_image_of_upset_rejects_unrooted_target():
    two = build_poset(["a", "b"], [])
    with pytest.raises(ValueError):
        image_of_upset(two, catalog_get("P2"))
