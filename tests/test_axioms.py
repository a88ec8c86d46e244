"""Splitting and subframe axioms, and the sum decomposition."""

from __future__ import annotations

import re

import pytest

from ipckit.axioms import (
    decompose_kg,
    jankov_syntactic,
    sum_blocks,
    validates_jankov,
    validates_subframe,
)
from ipckit.catalog import (
    catalog_get,
    catalog_keys,
    ladder_top_segment,
    ladder_upset,
    one_point,
)
from ipckit.morphisms import epartitions, quotient
from ipckit.poset import (
    are_isomorphic,
    build_poset,
    canonical_code,
    enumerate_posets,
    enumerate_rooted,
    upset_masks,
)
from ipckit.semantics import is_valid
from _oracle_stack import decompose_kg_by_codes, sum_blocks_by_cut_loop

CH3 = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
CH4 = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
F2 = build_poset(["r", "a", "b"], [("r", "a"), ("r", "b")])


def test_validates_jankov_examples():
    assert not validates_jankov(F2, F2)
    assert validates_jankov(CH4, F2)
    assert validates_jankov(F2, CH3)


def test_jankov_matches_the_quotient_route_without_search():
    """validates_jankov against a route that runs no image search.  The
    rooted images of a host's upsets are the quotients of its principal
    upsets up(x) by their E-partitions (image_of_upset's docstring, then
    quotient's), so the host validates the splitting formula of F exactly
    when F's code is not among the codes of those quotients.  Every poset
    of 1-6 points meets each K, G, BW1, BW2 and P frame of the catalog.

    The subframe side is not covered: its images come from every subset
    of the host, not only from the principal upsets, and no such route
    is built here."""
    frames = [catalog_get(k) for k in catalog_keys()
              if re.fullmatch(r"(K|G|BW1|BW2|P)\(\d+\)", k)]
    assert len(frames) == 29
    hosts = [p for n in range(1, 7) for p in enumerate_posets(n)]
    assert len(hosts) == 405
    refuted = 0
    for host in hosts:
        images = set()
        for up in host.up:
            sub = host.restrict(up)
            images |= {canonical_code(quotient(sub, part)[0]) for part in epartitions(sub)}
        for f in frames:
            ok = validates_jankov(host, f)
            assert ok == (canonical_code(f) not in images), (host.up, f.name)
            refuted += not ok
    assert refuted == 628  # of 11,745 pairs: both answers occur


def test_validates_subframe_examples():
    p2, p3 = catalog_get("P2"), catalog_get("P3")
    for i in range(1, 8):
        assert not validates_subframe(catalog_get(f"K({i})"), p2)
    for i in range(1, 7):
        assert not validates_subframe(catalog_get(f"G({i})"), p3)
    assert validates_subframe(CH3, F2)


def test_rejects_unrooted_targets():
    two = build_poset(["a", "b"], [])
    with pytest.raises(ValueError):
        validates_jankov(F2, two)
    with pytest.raises(ValueError):
        validates_subframe(F2, two)


def test_jankov_antitonicity_in_host():
    targets = [p for n in range(1, 4) for p in enumerate_rooted(n)]
    hosts = [catalog_get(k) for k in
             ("P1", "P2", "P3", "K2", "K5", "G2", "G5", "BW2(7)", "BW1(2)")]
    for h in hosts:
        for t in targets:
            if not validates_jankov(h, t):
                continue
            for mask in upset_masks(h):
                assert validates_jankov(h.restrict(mask), t)


def test_subframe_antitonicity_under_subposets():
    targets = [p for n in range(1, 4) for p in enumerate_rooted(n)]
    hosts = [catalog_get(k) for k in ("P2", "P3", "K5", "G5", "BW1(2)")]
    for h in hosts:
        for t in targets:
            if not validates_subframe(h, t):
                continue
            for mask in range(1, 1 << h.n):
                assert validates_subframe(h.restrict(mask), t)


def test_jankov_syntactic_grid():
    targets = [p for n in range(1, 4) for p in enumerate_rooted(n)]
    hosts = [p for n in range(1, 5) for p in enumerate_posets(n)]
    for t in targets:
        formula = jankov_syntactic(t)
        for h in hosts:
            assert is_valid(h, formula) == validates_jankov(h, t)


def test_jankov_syntactic_self_refutation():
    for n in range(1, 5):
        for t in enumerate_rooted(n):
            assert not is_valid(t, jankov_syntactic(t))


def test_jankov_of_point_refuted_everywhere():
    formula = jankov_syntactic(one_point())
    for n in range(1, 5):
        for h in enumerate_posets(n):
            assert not is_valid(h, formula)


def test_sum_blocks():
    blocks = sum_blocks(CH3)
    assert [b.n for b in blocks] == [1, 1, 1]
    l4 = ladder_upset(4)
    blocks = sum_blocks(l4)
    assert [b.n for b in blocks] == [3, 1]
    assert are_isomorphic(blocks[0], ladder_top_segment(2))


def test_sum_blocks_match_the_cut_loop_oracle():
    # the elements and up-masks of every block, on every poset of at most
    # 7 points
    for n in range(8):
        for p in enumerate_posets(n):
            new, old = sum_blocks(p), sum_blocks_by_cut_loop(p)
            assert [(b.elements, b.up) for b in new] == \
                [(b.elements, b.up) for b in old], p.up


def test_decompose_kg_matches_the_code_set_oracle():
    # the same factors, or None for both, on every rooted poset of at most
    # 7 points, of which some but not all decompose
    shapes = set()
    for n in range(1, 8):
        for p in enumerate_rooted(n):
            new, old = decompose_kg(p), decompose_kg_by_codes(p)
            shapes.add(new is None)
            assert (new is None) == (old is None), p.up
            if new is not None:
                assert [(b.elements, b.up) for b in new] == \
                    [(b.elements, b.up) for b in old], p.up
    assert shapes == {True, False}


def test_decompose_examples():
    factors = decompose_kg(CH3)
    assert [f.n for f in factors] == [1, 1]
    l4 = catalog_get("L(4)")
    factors = decompose_kg(l4)
    assert len(factors) == 1 and factors[0].n == 3
    assert decompose_kg(catalog_get("P1")) is None
    assert decompose_kg(one_point()) == []


def test_decompose_matches_subframe_axioms():
    axioms = [catalog_get(f"P({i})") for i in (1, 2, 3)]
    for n in range(1, 7):
        for p in enumerate_rooted(n):
            dec = decompose_kg(p) is not None
            val = all(validates_subframe(p, a) for a in axioms)
            assert dec == val, p.up


def test_ladder_upsets_decompose():
    for k in range(0, 10):
        assert decompose_kg(ladder_upset(k)) is not None
