"""P-morphism search, image criteria, E-partitions and quotients."""

from __future__ import annotations

import itertools

import pytest

from ipckit.budget import WorkMeter
from ipckit.errors import BudgetExceeded, NotAnEPartition
from ipckit.heyting import count_subalgebras, upset_algebra
from ipckit.morphisms import (
    PMorphism,
    epartitions,
    find_pmorphism,
    image_of_subposet,
    image_of_upset,
    quotient,
)
from ipckit.poset import (
    are_isomorphic,
    build_poset,
    enumerate_posets,
    enumerate_rooted,
    upset_masks,
)
from _oracle_epart import collapse_upset, is_epartition, kernel_partition

ONE = build_poset(["o"], [])
CH2 = build_poset(["a", "b"], [("a", "b")])
CH3 = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
CH4 = build_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
F2 = build_poset(["r", "a", "b"], [("r", "a"), ("r", "b")])


def _mask(p, names):
    return sum(1 << p.index(e) for e in names)


def test_identity_exists():
    for p in (ONE, CH3, F2):
        pm = find_pmorphism(p, p)
        assert pm is not None
        pm.validate()


def test_validate_rejects_non_monotone_maps():
    # validate checks only the back condition, which implies monotonicity
    posets = [p for n in range(1, 4) for p in enumerate_posets(n)]
    rejected = 0
    for src in posets:
        for dst in posets:
            for mapping in itertools.product(range(dst.n), repeat=src.n):
                if all(dst.up[mapping[i]] >> mapping[j] & 1
                       for i in range(src.n) for j in range(src.n)
                       if src.up[i] >> j & 1):
                    continue
                with pytest.raises(ValueError):
                    PMorphism(src, dst, mapping).validate()
                rejected += 1
    assert rejected
    with pytest.raises(ValueError):
        PMorphism(CH2, CH2, (1, 0)).validate()


def test_collapse_and_absence():
    assert find_pmorphism(F2, CH2, surjective=True) is not None
    assert find_pmorphism(CH3, F2, surjective=True) is None


def test_search_is_exhaustive_against_bruteforce():
    posets = [p for n in range(1, 5) for p in enumerate_posets(n)]
    for src in posets:
        for dst in posets:
            found = find_pmorphism(src, dst, surjective=True) is not None
            brute = False
            for mapping in itertools.product(range(dst.n), repeat=src.n):
                if len(set(mapping)) != dst.n:
                    continue
                try:
                    PMorphism(src, dst, mapping).validate()
                    brute = True
                    break
                except ValueError:
                    continue
            assert found == brute, (src.up, dst.up)


def test_image_of_upset_examples():
    assert image_of_upset(F2, F2)
    assert image_of_upset(ONE, F2)
    assert not image_of_upset(CH3, F2)


def test_image_of_subposet_examples():
    from ipckit.catalog import catalog_get

    assert image_of_subposet(catalog_get("P2"), catalog_get("K1"))
    assert not image_of_subposet(F2, CH4)
    assert image_of_subposet(F2, F2)


def test_image_monotone_under_upsets():
    hosts = [p for n in range(1, 6) for p in enumerate_posets(n)]
    targets = [p for n in range(1, 4) for p in enumerate_rooted(n)]
    for h in hosts[:40]:
        for t in targets:
            for mask in upset_masks(h):
                sub = h.restrict(mask)
                if image_of_upset(t, sub):
                    assert image_of_upset(t, h)


def test_epartition_examples():
    assert len(epartitions(ONE)) == 1
    assert len(epartitions(CH2)) == 2
    parts = epartitions(F2)
    assert len(parts) == 3


def test_epartition_counts_match_subalgebras():
    for n in range(0, 5):
        for p in enumerate_posets(n):
            assert len(epartitions(p)) == count_subalgebras(upset_algebra(p))


def test_epartition_budget():
    big = build_poset([f"x{i}" for i in range(9)], [])
    with pytest.raises(BudgetExceeded):
        epartitions(big)


def test_quotient_examples():
    q, pm = quotient(F2, collapse_upset(F2, _mask(F2, ["a", "b"])))
    assert are_isomorphic(q, CH2)
    assert pm.is_surjective()
    ident = next(ep for ep in epartitions(F2) if len(ep) == 3)
    q2, _ = quotient(F2, ident)
    assert are_isomorphic(q2, F2)


def test_quotient_rejects_bad_partition():
    bad = (_mask(F2, ["r", "a"]), _mask(F2, ["b"]))
    assert not is_epartition(F2, bad)
    with pytest.raises(NotAnEPartition):
        quotient(F2, bad)
    # an empty block beside the one-block E-partition
    whole = next(ep for ep in epartitions(F2) if len(ep) == 1)
    empty = whole + (0,)
    overlapping = (0b011, 0b110)
    missing = (0b011,)
    outside = (0b011, 0b100 | 1 << F2.n)
    for blocks in (empty, overlapping, missing, outside):
        assert not is_epartition(F2, blocks)
        with pytest.raises(NotAnEPartition):
            quotient(F2, blocks)


def test_collapse_upset_is_epartition():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            for mask in upset_masks(p):
                if mask == 0:
                    continue
                part = collapse_upset(p, mask)
                assert is_epartition(p, part)
                quotient(p, part)


def test_kernel_correspondence():
    for n in range(1, 5):
        for p in enumerate_posets(n):
            eps = set(epartitions(p))
            kernels = set()
            for m in range(1, n + 1):
                for q in enumerate_posets(m):
                    for mapping in itertools.product(range(q.n), repeat=p.n):
                        if len(set(mapping)) != q.n:
                            continue
                        pm = PMorphism(p, q, mapping)
                        try:
                            pm.validate()
                        except ValueError:
                            continue
                        kernels.add(kernel_partition(pm))
            assert eps == kernels


def _set_partitions_of(elements):
    parts = []

    def rec(i):
        if i == len(elements):
            yield [list(b) for b in parts]
            return
        for b in parts:
            b.append(elements[i])
            yield from rec(i + 1)
            b.pop()
        parts.append([elements[i]])
        yield from rec(i + 1)
        parts.pop()

    yield from rec(0)


def test_kernel_correspondence_size_five():
    # independent oracle: a partition is a kernel iff projecting onto the
    # induced block relation passes the exhaustive p-morphism validator
    from ipckit.poset import Poset

    for p in enumerate_posets(5):
        eps = set(epartitions(p))
        valid = set()
        for part in _set_partitions_of(list(range(p.n))):
            k = len(part)
            block_of = {}
            for b, members in enumerate(part):
                for i in members:
                    block_of[i] = b
            rel = [[b == c for c in range(k)] for b in range(k)]
            for i in range(p.n):
                for j in range(p.n):
                    if p.up[i] >> j & 1:
                        rel[block_of[i]][block_of[j]] = True
            # candidate quotient must be a poset
            if any(rel[b][c] and rel[c][b] and b != c
                   for b in range(k) for c in range(k)):
                continue
            if any(rel[a][b] and rel[b][c] and not rel[a][c]
                   for a in range(k) for b in range(k) for c in range(k)):
                continue
            ups = []
            for b in range(k):
                m = 0
                for c in range(k):
                    if rel[b][c]:
                        m |= 1 << c
                ups.append(m)
            q = Poset(tuple(f"b{b}" for b in range(k)), tuple(ups))
            pm = PMorphism(p, q, tuple(block_of[i] for i in range(p.n)))
            try:
                pm.validate()
            except ValueError:
                continue
            valid.add(kernel_partition(pm))
        assert eps == valid, p.up


def test_collapse_reproduces_k3_inside_ambient_frames():
    from ipckit.catalog import catalog_get

    zk3 = catalog_get("Z_K(3)")
    q, pm = quotient(zk3, collapse_upset(zk3, _mask(zk3, ["a", "b", "c", "t"])))
    assert pm.is_surjective()
    assert are_isomorphic(q, catalog_get("K3"))
    zk4 = catalog_get("Z_K(4)")
    q, _ = quotient(zk4, collapse_upset(zk4, _mask(zk4, ["a", "b", "t"])))
    assert are_isomorphic(q, catalog_get("K3"))


def test_search_budget():
    from ipckit.catalog import y_poset

    meter = WorkMeter(limit=10)
    with pytest.raises(BudgetExceeded):
        find_pmorphism(y_poset(2), y_poset(1), surjective=True, meter=meter)


@pytest.mark.parametrize("search", [image_of_upset, image_of_subposet])
def test_image_search_budget(search):
    from ipckit.catalog import catalog_get

    host, target = catalog_get("Z_K(3)"), catalog_get("P(1)")
    full = WorkMeter()
    answer = search(target, host, full)
    assert full.spent > 10
    for limit in (0, 10, full.spent - 1):
        meter = WorkMeter(limit=limit)
        with pytest.raises(BudgetExceeded):
            search(target, host, meter)
        assert meter.spent == limit + 1
    meter = WorkMeter(limit=full.spent)
    assert search(target, host, meter) == answer
    assert meter.spent == full.spent
