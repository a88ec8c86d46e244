"""Finite Heyting algebras and the finite duality."""

from __future__ import annotations

import dataclasses
import random

import pytest

from ipckit.errors import BudgetExceeded
from ipckit.heyting import (
    _check_residuation,
    count_quotients,
    count_subalgebras,
    dual_poset,
    upset_algebra,
)
from ipckit.morphisms import epartitions
from ipckit.poset import (
    _bits,
    _transpose,
    are_isomorphic,
    build_poset,
    enumerate_posets,
    enumerate_rooted,
    root,
    sum_posets,
    upset_masks,
)
from _oracle_heyting import (
    algebra_sum,
    algebras_isomorphic,
    boolean_two,
    check_residuation_by_downsets,
    check_residuation_galois,
    check_residuation_pointwise,
    count_subalgebras_by_rounds,
    dual_poset_by_filters,
    is_si,
    upset_algebra_by_definition,
)

ONE = build_poset(["o"], [])
TWO = build_poset(["a", "b"], [])
CH2 = build_poset(["a", "b"], [("a", "b")])
CH3 = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
F2 = build_poset(["r", "a", "b"], [("r", "a"), ("r", "b")])


def test_upset_algebra_shapes():
    assert algebras_isomorphic(upset_algebra(ONE), boolean_two())
    assert upset_algebra(CH2).size == 3
    assert upset_algebra(TWO).size == 4


def test_residual_on_antichain():
    # {a} -> empty is {b}
    alg = upset_algebra(TWO)
    masks = upset_masks(TWO)
    pos = {m: i for i, m in enumerate(masks)}
    a_only = pos[0b01]
    empty = pos[0]
    assert masks[alg.imp[a_only][empty]] == 0b10


def test_upset_algebra_matches_its_definitions():
    # every table, the bottom, the top and the name, on every poset of at
    # most 6 points and a named one: the order as an AND of the upsets
    # holding each point against inclusion tested pair by pair, and
    # U -> V through down(U - V) against {x : up(x) & U inside V}
    named = build_poset(["r", "a", "b"], [("r", "a"), ("r", "b")], name="F2")
    posets = [p for n in range(7) for p in enumerate_posets(n)] + [named]
    for p in posets:
        alg, ref = upset_algebra(p), upset_algebra_by_definition(p)
        assert (alg, alg.name) == (ref, ref.name), p.up


def _rejects(check, alg):
    try:
        check(alg)
    except ValueError:
        return True
    return False


def _corruptions(alg, tables, rng, count=20):
    """count copies of alg, each with one random entry of one of the
    named tables set to a random element."""
    k = alg.size
    for _ in range(count):
        table = rng.choice(tables)
        rows = [list(r) for r in getattr(alg, table)]
        rows[rng.randrange(k)][rng.randrange(k)] = rng.randrange(k)
        yield dataclasses.replace(alg, **{table: tuple(map(tuple, rows))})


def test_residuation_check_agrees_with_pointwise_oracle():
    # every upset algebra of at most 6 points passes all four checks, and
    # its down-set table is its order transposed; then each single-entry
    # corruption of imp or meet, 20 per poset of at most 4 points, is
    # rejected by all four or by none
    for n in range(7):
        for p in enumerate_posets(n):
            alg = upset_algebra(p)
            assert alg.down == tuple(_transpose(alg.leq, alg.size))
            _check_residuation(alg)
            check_residuation_pointwise(alg)
            check_residuation_by_downsets(alg)
            check_residuation_galois(alg)
    rng = random.Random(0x6A1015)
    rejected = 0
    for n in range(5):
        for p in enumerate_posets(n):
            for bad in _corruptions(upset_algebra(p), ["imp", "meet"], rng):
                verdict = _rejects(_check_residuation, bad)
                assert verdict == _rejects(check_residuation_pointwise, bad)
                assert verdict == _rejects(check_residuation_by_downsets, bad)
                assert verdict == _rejects(check_residuation_galois, bad)
                rejected += verdict
    assert 0 < rejected < 25 * 20


def test_residuation_check_needs_a_partial_order():
    alg = upset_algebra(CH3)
    not_transitive = list(alg.leq)
    not_transitive[alg.bottom] = 1 << alg.bottom | 1 << next(
        y for y in _bits(alg.leq[alg.bottom]) if y != alg.bottom)
    cyclic = list(alg.leq)
    cyclic[alg.top] |= 1 << alg.bottom
    for leq in (not_transitive, cyclic):
        with pytest.raises(ValueError, match="partial order"):
            _check_residuation(dataclasses.replace(alg, leq=tuple(leq)))


def test_is_si():
    assert is_si(upset_algebra(F2))
    assert not is_si(upset_algebra(TWO))
    assert is_si(boolean_two())


def test_si_iff_rooted():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert is_si(upset_algebra(p)) == (root(p) is not None)


def test_algebra_sum_examples():
    b2 = boolean_two()
    assert algebras_isomorphic(algebra_sum(b2, b2), upset_algebra(CH2))
    assert algebra_sum(algebra_sum(b2, b2), b2).size == 4


def test_sum_duality():
    rooted = [p for n in range(1, 5) for p in enumerate_rooted(n)]
    for p in rooted:
        for q in rooted:
            lhs = upset_algebra(sum_posets(p, q))
            rhs = algebra_sum(upset_algebra(p), upset_algebra(q))
            assert algebras_isomorphic(lhs, rhs)


def test_dual_poset_examples():
    assert are_isomorphic(dual_poset(upset_algebra(CH3)), CH3)
    assert are_isomorphic(dual_poset(boolean_two()), ONE)
    assert are_isomorphic(dual_poset(upset_algebra(F2)), F2)


def test_duality_roundtrip():
    for n in range(0, 6):
        for p in enumerate_posets(n):
            assert are_isomorphic(dual_poset(upset_algebra(p)), p)


def test_dual_poset_matches_the_filter_oracle():
    # the restricted reversed order against the up-sets built pair by
    # pair over the primes, on all 406 posets of at most 6 points
    count = 0
    for n in range(7):
        for p in enumerate_posets(n):
            a = upset_algebra(p)
            new, old = dual_poset(a), dual_poset_by_filters(a)
            assert (new.elements, new.up, new.name) == (old.elements, old.up, old.name), p.up
            count += 1
    assert count == 406


def test_count_subalgebras_examples():
    assert count_subalgebras(upset_algebra(CH2)) == 2
    assert count_subalgebras(upset_algebra(TWO)) == 2
    assert count_subalgebras(boolean_two()) == 1


def test_count_subalgebras_matches_the_rounds_oracle():
    # both closures give the least closed superset for any tables, so the
    # counts agree on every upset algebra of at most 4 points, on B2, and
    # on 20 single-entry corruptions of meet, join or imp of each
    rng = random.Random(0x5AB)
    algebras = [upset_algebra(p) for n in range(5) for p in enumerate_posets(n)]
    algebras.append(boolean_two())
    moved = 0
    for alg in algebras:
        count = count_subalgebras(alg)
        assert count == count_subalgebras_by_rounds(alg)
        for bad in _corruptions(alg, ["meet", "join", "imp"], rng):
            bad_count = count_subalgebras(bad)
            assert bad_count == count_subalgebras_by_rounds(bad)
            moved += bad_count != count
    assert moved


def test_count_subalgebras_budget():
    big = build_poset([f"x{i}" for i in range(5)], [])
    with pytest.raises(BudgetExceeded):
        count_subalgebras(upset_algebra(big))


def test_count_quotients_examples():
    assert count_quotients(upset_algebra(CH2)) == 3
    assert count_quotients(upset_algebra(F2)) == len(upset_masks(F2))
    assert count_quotients(boolean_two()) == 2


def test_count_quotients_budget():
    big = build_poset([f"x{i}" for i in range(5)], [])
    with pytest.raises(BudgetExceeded):
        count_quotients(upset_algebra(big))


def test_all_filters_are_principal_bruteforce():
    # a brute-force filter count over all subsets: an oracle for
    # count_quotients, which counts the meet-closed nonempty upsets
    for p in (ONE, CH2, TWO, F2):
        alg = upset_algebra(p)
        k = alg.size
        filters = 0
        for mask in range(1, 1 << k):
            members = [x for x in range(k) if mask >> x & 1]
            up_closed = all(
                alg.leq[x] & ~mask == 0 for x in members
            )
            meet_closed = all(
                mask >> alg.meet[x][y] & 1 for x in members for y in members
            )
            if up_closed and meet_closed:
                filters += 1
        assert filters == count_quotients(alg)


def test_duality_counts_invariant():
    for n in range(0, 5):
        for p in enumerate_posets(n):
            alg = upset_algebra(p)
            assert count_quotients(alg) == len(upset_masks(p))
            assert count_subalgebras(alg) == len(epartitions(p))


def test_algebras_isomorphic_via_frames():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            for q in enumerate_posets(n):
                assert algebras_isomorphic(upset_algebra(p), upset_algebra(q)) == \
                    are_isomorphic(p, q)
    assert not algebras_isomorphic(upset_algebra(F2), upset_algebra(CH3))
