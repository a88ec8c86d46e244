"""Poset construction, structure queries, sums, canonical forms,
enumeration."""

from __future__ import annotations

import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ipckit.poset as poset_mod
from ipckit.errors import BudgetExceeded, CycleDetected, DuplicateElement, UnknownElement
from ipckit.poset import (
    EMPTY,
    Poset,
    _bits,
    _max_antichain,
    _refined_colors,
    _twin_keys,
    are_isomorphic,
    build_poset,
    canonical_code,
    enumerate_posets,
    enumerate_rooted,
    iter_upset_masks,
    root,
    stack,
    sum_posets,
    upset_masks,
    width,
)
import _oracle_poset as oracle
from _oracle_poset import (
    _automorphisms,
    add_root,
    enumerate_rooted_by_code,
    max_antichain_bnb,
    max_antichain_brute,
)
from _oracle_upsets import upset_masks_dfs

# the order data memoised on a Poset on first use; _peel holds the
# heights and topdown
MEMOS = ("_peel", "height", "maxima", "upper_covers", "root_index",
         "full_width", "upset_widths", "by_upset_size", "image_candidates",
         "upsets")


def chain(k):
    return build_poset([f"c{i}" for i in range(k)],
                       [(f"c{i}", f"c{i+1}") for i in range(k - 1)])


ONE = build_poset(["o"], [])
TWO = build_poset(["a", "b"], [])
F2 = build_poset(["r", "a", "b"], [("r", "a"), ("r", "b")])
F3 = build_poset(["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("r", "c")])


def test_bits_match_the_generator_oracle():
    # the byte table below 256 and the top-down walk above it give the
    # generator's indices in its order, as a tuple; wide masks dense and
    # sparse, drawn from a fixed seed
    rng = random.Random(19)
    wide = [m | 1 << (w - 1) for w in range(9, 301)
            for m in (rng.getrandbits(w), 1 << rng.randrange(w) | 1 << rng.randrange(w))]
    for mask in itertools.chain(range(1 << 12), wide):
        bits = _bits(mask)
        assert type(bits) is tuple and bits == tuple(oracle._bits(mask)), mask


def test_bits_reject_negative_masks():
    for mask in (-1, -2, -255, -256, -257, -(1 << 70)):
        with pytest.raises(ValueError):
            _bits(mask)


def test_build_cover_closure():
    p = build_poset(["a", "b"], [("a", "b")])
    assert p.up[0] >> 1 & 1 and not p.up[1] >> 0 & 1
    assert root(p) == "a"


def test_build_one_point():
    p = build_poset(["a"], [])
    assert p.n == 1 and root(p) == "a"


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


@st.composite
def _pair_lists(draw):
    """0-9 points and a list of index pairs over them, cycles allowed."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return 0, []
    point = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(point, point), max_size=2 * n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_pair_lists())
def test_closure_matches_fixpoint_oracle(case):
    # one Warshall sweep against sweeping until nothing changes
    n, pairs = case
    names = [f"x{i}" for i in range(n)]
    try:
        want = oracle.closed_up(n, pairs)
    except CycleDetected:
        with pytest.raises(CycleDetected):
            build_poset(names, [(names[a], names[b]) for a, b in pairs])
        return
    assert build_poset(names, [(names[a], names[b]) for a, b in pairs]).up == want


def test_build_rejects_bad_names():
    with pytest.raises(DuplicateElement):
        build_poset(["a", "a"], [])
    with pytest.raises(UnknownElement):
        build_poset(["a"], [("a", "zz")])


def test_width_examples():
    assert width(EMPTY) == 0
    assert width(chain(5)) == 1
    assert width(F3) == 3
    # non-rooted widths go through principal upsets
    assert width(TWO) == 1
    assert width(sum_posets(TWO, TWO)) == 2


def test_root_examples():
    assert root(F2) == "r"
    assert root(TWO) is None
    assert root(ONE) == "o"


def test_sum_examples():
    assert are_isomorphic(sum_posets(ONE, ONE), chain(2))
    assert len(upset_masks(sum_posets(TWO, TWO))) == 4 + 4 - 1
    # pasting below keeps the lower part under everything
    s = sum_posets(F2, ONE)
    assert root(s) is not None and s.n == 4


def test_upsets_examples():
    assert len(upset_masks(chain(2))) == 3
    assert len(upset_masks(TWO)) == 4
    ups = upset_masks(F2)
    assert len(ups) == 5 and 0 in ups and F2.full_mask in ups


def test_upsets_by_size_against_depth_first_search():
    # every poset of at most 7 points, and wide and tall ones beyond
    wide = [build_poset([f"x{i}" for i in range(k)], []) for k in (8, 10)]
    posets = [p for n in range(8) for p in enumerate_posets(n)]
    for p in posets + wide + [chain(12), Poset(("c", "a", "b"), F2.up)]:
        memo = {k: v for k, v in p.__dict__.items() if k != "upsets"}
        assert upset_masks(p) == upset_masks_dfs(p)
        # enumeration memoises only the upsets on p, as a tuple
        assert p.__dict__ == dict(memo, upsets=tuple(upset_masks_dfs(p)))


def test_upset_prefix_stops_early():
    # the first sizes of the upsets of a 40-point antichain, without the rest
    big = build_poset([f"x{i}" for i in range(40)], [])
    head = list(itertools.islice(iter_upset_masks(big), 42))
    assert head == [0] + [1 << i for i in range(40)] + [0b11]


def test_derived_order_data_against_direct_definitions():
    # the O(n^3) cover test and the all-masks downset filter that the
    # memoised order data replaced serve as oracles
    for n in range(0, 6):
        for p in enumerate_posets(n):
            down = p.down_masks()
            h = p.heights()
            assert list(p.topdown) == sorted(range(n), key=lambda i: (h[i], i))
            assert p.maxima == sum(1 << i for i in range(n) if p.up[i] == 1 << i)
            for k, x in enumerate(p.topdown):
                assert all(p.topdown.index(y) < k for y in range(n)
                           if y != x and p.up[x] >> y & 1)
            covers = []
            for i in range(n):
                su = p.strict_up(i)
                for j in range(n):
                    if su >> j & 1 and not any(
                            su >> k & 1 and k != j and p.up[k] >> j & 1
                            for k in range(n)):
                        covers.append((i, j))
            assert p.covers() == covers
            downsets = [m for m in range(1 << n)
                        if all(down[i] & ~m == 0 for i in range(n) if m >> i & 1)]
            assert downsets == sorted(p.full_mask ^ u for u in upset_masks(p))


def test_peel_matches_the_sort_oracle():
    # every poset of at most 7 points, every rooted poset of at most 8,
    # ladder segments T(0)-T(23) and the catalog frames
    from ipckit.catalog import catalog_get, catalog_keys, ladder_top_segment

    posets = [p for n in range(8) for p in enumerate_posets(n)]
    posets += enumerate_rooted(8) + [ladder_top_segment(m) for m in range(24)]
    posets += [catalog_get(k) for k in catalog_keys() if re.search(r"\(\d+\)$", k)]
    posets += [catalog_get(k) for k in ("F(4)", "L(9)", "C(6)", "Y(4)",
                                        "Gn_trunc(3,3)", "Xm_trunc(2,3,3)")]
    assert len(posets) == 2451 + 2045 + 24 + 36 + 6
    for p in posets:
        h = oracle.heights_by_sort(p)
        assert p._heights == h and p.heights() == list(h), p.up
        assert p.height == max(h, default=-1), p.up
        assert p.topdown == oracle.topdown_by_sort(p), p.up


def test_heights_memo_is_not_shared():
    p = chain(3)
    h = p.heights()
    h[0] = 99
    assert p.heights() == [2, 1, 0]
    assert p.height == 2 and build_poset([], []).height == -1


def test_width_memos_against_direct_definitions():
    # per point the antichain recursion and a try-every-subset oracle, and
    # the root and size order by a linear scan and a plain sort
    for n in range(0, 7):
        for p in enumerate_posets(n):
            full = p.full_mask
            widths = tuple(max_antichain_brute(p, u) for u in p.up)
            assert p.upset_widths == tuple(_max_antichain(p, u) for u in p.up) == widths
            assert p.full_width == _max_antichain(p, full) == max_antichain_brute(p, full)
            assert width(p) == max(widths, default=0)
            scan = [i for i in range(n) if p.up[i] == full]
            assert p.root_index == (scan[0] if scan else None)
            assert root(p) == (p.elements[scan[0]] if scan else None)
            assert p.by_upset_size == tuple(
                sorted(range(n), key=lambda i: (-bin(p.up[i]).count("1"), i)))


def matching_widths_agree_on_every_mask(top):
    """The number of (poset, mask) pairs, over every mask of every poset
    of at most top points, on which the matching width was checked
    against the branch-and-bound and try-every-subset oracles."""
    count = 0
    for n in range(top + 1):
        for p in enumerate_posets(n):
            for mask in range(1 << n):
                assert (_max_antichain(p, mask) == max_antichain_bnb(p, mask)
                        == max_antichain_brute(p, mask)), (p.up, mask)
                count += 1
    return count


def test_matching_width_matches_the_antichain_oracles_on_every_mask():
    # the greedy pass alone, or augmenting paths one step long, miss a
    # matching on some of these; at 7 points the same check covers
    # 284,435 masks
    assert matching_widths_agree_on_every_mask(6) == 22_675


def test_matching_width_on_full_and_principal_masks():
    # every poset of at most 7 points and every rooted poset of 8, on the
    # masks the width memos read
    posets = [p for n in range(8) for p in enumerate_posets(n)] + enumerate_rooted(8)
    assert len(posets) == 2451 + 2045
    for p in posets:
        assert p.full_width == max_antichain_bnb(p, p.full_mask), p.up
        assert p.upset_widths == tuple(max_antichain_bnb(p, u) for u in p.up), p.up


def test_width_of_a_rooted_poset_is_its_full_width():
    # width reads the upset widths alone: up(root) is the whole order, so
    # the root's entry is the full width
    assert width(build_poset([], [])) == 0
    for n in range(1, 8):
        for p in enumerate_rooted(n):
            assert width(p) == p.full_width


def test_pickles_carry_no_memo():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")], name="v")
    p.heights(), p.height, p.maxima, p.topdown, p.upper_covers
    p.root_index, p.full_width, p.upset_widths, p.by_upset_size
    p.image_candidates, p.upsets
    assert all(m in vars(p) for m in MEMOS)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and q.name == "v"
    assert not any(m in vars(q) for m in MEMOS)
    assert pickle.dumps(p) == pickle.dumps(Poset(p.elements, p.up, "v"))
    assert q.heights() == [1, 0, 0] and q.upper_covers == ((1, 2), (), ())
    assert q.maxima == 0b110
    assert (q.root_index, q.full_width, q.upset_widths, q.by_upset_size) == (
        0, 2, (2, 1, 1), (0, 1, 2))


def test_enumerate_rooted_width_filter():
    # the filter reads the width off the unrooted representative; each
    # call hands out a new list of the same cached posets
    for size in range(1, 7):
        every = enumerate_rooted(size)
        for mw in (1, 2, 3):
            kept = enumerate_rooted(size, max_width=mw)
            assert kept == [p for p in every if width(p) <= mw]
            again = enumerate_rooted(size, max_width=mw)
            assert type(again) is list and again is not kept
            assert again == kept and all(a is b for a, b in zip(again, kept))


def test_enumerate_rooted_checks_a_cached_size():
    enumerate_rooted(8)
    with pytest.raises(BudgetExceeded):
        enumerate_rooted(8, cap=7)
    with pytest.raises(ValueError):
        enumerate_rooted(0)


def test_enumerate_rooted_wide_bound_adds_no_cache_entry():
    # a rooted poset of n points has width at most max(1, n - 1)
    poset_mod._rooted.cache_clear()
    every = enumerate_rooted(5)
    for mw in (5, 6, 100):
        assert enumerate_rooted(5, max_width=mw) == every
    assert poset_mod._rooted.cache_info().currsize == 1
    assert enumerate_rooted(5, max_width=4) == every
    assert poset_mod._rooted.cache_info().currsize == 2


def test_enumerate_rooted_list_is_the_callers():
    first = enumerate_rooted(4)
    expected = list(first)
    first.append(first[0])
    first.reverse()
    del first[1]
    assert enumerate_rooted(4) == expected


def test_rooted_codes_derived_from_parents():
    # every rooted poset of 1-8 points comes in strictly increasing code
    # order, as the old sort by its own code put it
    for mw in (None, 1, 2, 3):
        for size in range(1, 9):
            codes = [canonical_code(p) for p in enumerate_rooted(size, max_width=mw)]
            assert all(a < b for a, b in zip(codes, codes[1:])), (size, mw)
            assert enumerate_rooted(size, max_width=mw) == enumerate_rooted_by_code(size, mw)


@st.composite
def _renumbered_posets(draw, n):
    """A poset of n points, its relations drawn along a random order of
    its points, so that indices need not follow the order."""
    perm = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    names = [f"x{i}" for i in range(n)]
    return build_poset(names, [(names[perm[i]], names[perm[j]])
                               for (i, j), pick in zip(pairs, picks) if pick])


@st.composite
def _same_size_pairs(draw):
    n = draw(st.integers(9, 10))
    return draw(_renumbered_posets(n)), draw(_renumbered_posets(n))


def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_same_size_pairs())
def test_rooted_codes_on_generated_posets(pair):
    # beyond the enumerated sizes: adding a root keeps the order of two
    # codes of 9 or 10 points, and the derived rooted code is the code
    q1, q2 = pair
    assert _sign(canonical_code(q1), canonical_code(q2)) == _sign(
        canonical_code(add_root(q1)), canonical_code(add_root(q2)))
    for q in pair:
        assert oracle._rooted_code(q) == canonical_code(add_root(q))
        assert canonical_code(q) == oracle.canonical_code(q)


def test_enumerate_rooted_codes_no_rooted_poset(monkeypatch):
    # cold, so that the rooted tuples are built here
    poset_mod._rooted.cache_clear()
    reps = [q for n in range(8) for q in enumerate_posets(n)]
    for q in reps:
        canonical_code(q)
    size = canonical_code.cache_info().currsize
    coded = []

    def recording(p):
        coded.append(p)
        return canonical_code(p)

    monkeypatch.setattr(poset_mod, "canonical_code", recording)
    for mw in (None, 1, 2, 3):
        for n in range(1, 9):
            enumerate_rooted(n, max_width=mw)
    assert canonical_code.cache_info().currsize == size
    assert coded == []


def _candidates(n):
    """Every poset of n - 1 points with a new maximal point e{n-1} above
    one of its downsets, as enumerate_posets(n) builds them before any
    pruning."""
    els = tuple(f"e{i}" for i in range(n))
    top = 1 << (n - 1)
    for q in enumerate_posets(n - 1):
        for dmask in sorted(q.full_mask ^ u for u in upset_masks(q)):
            yield Poset(els, tuple(m | top if dmask >> i & 1 else m
                                   for i, m in enumerate(q.up)) + (top,))


def test_enumeration_matches_every_candidate_oracle():
    # same representatives, same names and masks, same order
    for n in range(8):
        assert enumerate_posets(n) == oracle.enumerate_posets(n)


def test_canonical_code_matches_oracle_on_every_candidate():
    cands = [p for n in range(1, 8) for p in _candidates(n)]
    assert len(cands) == 6378
    for p in cands:
        assert canonical_code(p) == oracle.canonical_code(p)


def test_refinement_stops_at_twin_classes(monkeypatch):
    # twins share every colour, so there are at most t colours, t the
    # number of twin classes; the colours are the oracle's, which refines
    # until one more full round splits nothing.  _min_rows walks only
    # below t colours: 347 of the 3,636 candidates that
    # enumerate_posets(1..7) codes
    for n in range(8):
        enumerate_posets(n)
    coded = set()

    def recording(p):
        coded.add(p.up)
        return canonical_code(p)

    monkeypatch.setattr(poset_mod, "canonical_code", recording)
    for n in range(1, 8):
        poset_mod._level.__wrapped__(n)
    monkeypatch.undo()
    walks = 0
    cands = [p for n in range(1, 8) for p in _candidates(n)]
    assert (len(cands), len(coded)) == (6378, 3636)
    for p in cands:
        down = p.down_masks()
        twin = _twin_keys(p, down)
        t = len(set(twin))
        colors = _refined_colors(p, down, t)
        assert colors == oracle._refined_colors(p)
        assert len(set(zip(twin, colors))) == t
        walks += len(set(colors)) < t and p.up in coded
    assert walks == 347


def _twin_rich_posets():
    """Stacks of antichains of 8 to 10 points, fans and a root below
    disjoint fans up to 10 points, L(k) up to 10 points, Y(1) and Y(2)."""
    from ipckit.catalog import fan, ladder_upset, y_poset

    for n in range(8, 11):
        for cuts in itertools.product((0, 1), repeat=n - 1):
            ends = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [n]
            sizes = [b - a for a, b in zip(ends, ends[1:])]
            yield stack([(str(k), Poset(tuple(range(a)), tuple(1 << i for i in range(a))))
                         for k, a in enumerate(sizes)])
    for k in range(1, 10):
        yield fan(k)
    for j in range(1, 5):
        for copies in range(1, 9 // (j + 1) + 1):
            pairs = [("r", f"r{c}") for c in range(copies)]
            pairs += [(f"r{c}", f"m{c}.{i}") for c in range(copies) for i in range(j)]
            yield build_poset(["r"] + sorted({b for _, b in pairs}), pairs)
    for k in range(11):
        yield ladder_upset(k)
    yield y_poset(1)
    yield y_poset(2)


def test_canonical_code_matches_oracle_on_twin_rich_relabelings():
    # the shapes on which the twin-class rules fire most, past the 7
    # points that the every-candidate test reaches
    rng = random.Random(31)
    posets = list(_twin_rich_posets())
    assert len(posets) == 896 + 9 + 10 + 11 + 2
    for p in posets:
        code = oracle.canonical_code(p)
        assert canonical_code(p) == code
        for _ in range(2):
            perm = list(range(p.n))
            rng.shuffle(perm)
            q = Poset(tuple(f"z{i}" for i in range(p.n)),
                      tuple(_permute_mask(p.up[perm.index(k)], perm, p.n)
                            for k in range(p.n)))
            assert canonical_code(q) == oracle.canonical_code(q) == code


def test_enumeration_codes_one_candidate_per_orbit(monkeypatch):
    # the candidates coded per size: 6,378 in all with no pruning, 3,636
    # with each parent's downsets pruned by its twin swaps and the sibling
    # rule skipping a class met at an earlier parent (3,437 when the
    # pruning used every automorphism of the parent)
    for n in range(8):
        enumerate_posets(n)
    coded = []

    def recording(p):
        coded.append(p)
        return canonical_code(p)

    monkeypatch.setattr(poset_mod, "canonical_code", recording)
    counts = []
    for n in range(1, 8):
        coded.clear()
        assert poset_mod._level.__wrapped__(n)[0] == enumerate_posets(n)
        counts.append(len(coded))
    assert counts == [1, 2, 5, 18, 81, 437, 3092]


def test_sibling_skips_point_to_earlier_parents(monkeypatch):
    # the least downset of each Aut(q)-orbit is the least of its twin
    # orbit too, so the orbit rule keeps it; if it was not coded, the
    # sibling rule skipped it, and, coded here, its class must have been
    # first met at an earlier parent of the unpruned walk
    for n in range(8):
        enumerate_posets(n)
    coded = set()

    def recording(p):
        coded.add(p.up)
        return canonical_code(p)

    skipped = []
    for n in range(1, 8):
        coded.clear()
        monkeypatch.setattr(poset_mod, "canonical_code", recording)
        poset_mod._level.__wrapped__(n)
        monkeypatch.undo()
        first = {}
        count = 0
        els = tuple(f"e{i}" for i in range(n))
        top = 1 << (n - 1)
        for k, q in enumerate(enumerate_posets(n - 1)):
            orbits = set()
            for dmask in sorted(q.full_mask ^ u for u in upset_masks(q)):
                cand = Poset(els, tuple(m | top if dmask >> i & 1 else m
                                        for i, m in enumerate(q.up)) + (top,))
                code = canonical_code(cand)
                first.setdefault(code, k)
                if dmask in orbits:
                    continue
                orbits |= {sum(1 << a[i] for i in range(q.n) if dmask >> i & 1)
                           for a in _automorphisms(q)}
                if cand.up not in coded:
                    count += 1
                    assert first[code] < k, (n, k, dmask)
        skipped.append(count)
    assert skipped == [0, 0, 1, 4, 23, 159, 1246]


def test_representatives_codes_are_cache_hits():
    # a cold enumeration codes each representative as a candidate, so
    # the scenarios read every one off the cache; the empty poset is no
    # candidate, and nothing codes it
    poset_mod._level.cache_clear()
    poset_mod._rooted.cache_clear()
    canonical_code.cache_clear()
    reps = [p for n in range(8) for p in enumerate_posets(n)]
    misses = canonical_code.cache_info().misses
    for p in reps:
        if p.n:
            canonical_code(p)
    assert canonical_code.cache_info().misses == misses
    assert [canonical_code(p) for p in reps] == [
        c for n in range(8) for c in poset_mod._level(n)[1]]


def test_automorphisms_against_brute_force():
    for n in range(7):
        for p in enumerate_posets(n):
            auts = _automorphisms(p)
            assert len(auts) == automorphism_count(p)
            assert len(set(auts)) == len(auts)
            assert auts[0] == tuple(range(n))
            for a in auts:
                assert sorted(a) == list(range(n))
                assert all(p.up[i] >> j & 1 == p.up[a[i]] >> a[j] & 1
                           for i in range(n) for j in range(n))


def test_twin_swaps_are_automorphisms_and_their_orbits_lie_in_aut_orbits():
    # the twin orbit of a downset D, by its definition: the downsets that
    # agree with D outside the twin classes of two or more points and
    # meet each such class in as many points as D does
    for n in range(7):
        for q in enumerate_posets(n):
            keys = _twin_keys(q, q.down_masks())
            auts = _automorphisms(q)
            classes = {}
            for i, key in enumerate(keys):
                classes[key] = classes.get(key, 0) | 1 << i
            classes = [c for c in classes.values() if c & c - 1]
            for u, v in itertools.combinations(range(n), 2):
                if keys[u] == keys[v]:
                    swap = list(range(n))
                    swap[u], swap[v] = v, u
                    assert tuple(swap) in auts
            twins = sum(classes)
            downs = [q.full_mask ^ u for u in upset_masks(q)]
            for d in downs:
                aut_orbit = {sum(1 << a[i] for i in _bits(d)) for a in auts}
                twin_orbit = {e for e in downs if e & ~twins == d & ~twins
                              and all((e & c).bit_count() == (d & c).bit_count()
                                      for c in classes)}
                assert d in twin_orbit <= aut_orbit


def test_canonical_relabel_invariance():
    a = build_poset(["a", "b"], [("a", "b")])
    b = build_poset(["x", "y"], [("x", "y")])
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(F2) != canonical_code(chain(3))


def test_canonical_many_random_relabelings():
    import random

    rng = random.Random(11)
    for n in range(2, 7):
        for p in enumerate_posets(n):
            perm = list(range(n))
            rng.shuffle(perm)
            q = Poset(
                tuple(f"z{i}" for i in range(n)),
                tuple(
                    _permute_mask(p.up[perm.index(k)], perm, n)
                    for k in range(n)
                ),
            )
            assert canonical_code(q) == canonical_code(p)


def _permute_mask(mask, perm, n):
    out = 0
    for j in range(n):
        if mask >> j & 1:
            out |= 1 << perm[j]
    return out


def test_enumerate_counts():
    assert [len(enumerate_posets(n)) for n in range(8)] == [1, 1, 2, 5, 16, 63, 318, 2045]
    assert len(enumerate_rooted(3)) == 2
    assert len(enumerate_rooted(5)) == 16
    assert len(enumerate_rooted(3, max_width=1)) == 1


def test_enumerate_yields_are_rooted_distinct():
    for size in (3, 4, 5, 6):
        seen = set()
        for p in enumerate_rooted(size):
            assert p.n == size
            assert root(p) is not None
            code = canonical_code(p)
            assert code not in seen
            seen.add(code)


def test_enumerate_budget_cap():
    with pytest.raises(BudgetExceeded):
        enumerate_rooted(9)


def _labeled_posets(n):
    """All reflexive-transitive-antisymmetric relations on range(n)."""
    if n == 0:
        return [()]
    out = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for picks in itertools.product((0, 1), repeat=len(offdiag)):
        rel = [1 << i for i in range(n)]
        for bit, (i, j) in zip(picks, offdiag):
            if bit:
                rel[i] |= 1 << j
        ok = True
        for i in range(n):
            for j in range(n):
                if i != j and rel[i] >> j & 1:
                    if rel[j] >> i & 1 or rel[j] & ~rel[i]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(tuple(rel))
    return out


def automorphism_count(p):
    """Number of order automorphisms, by brute force over permutations."""
    n = p.n
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(
            p.up[i] >> j & 1 == p.up[perm[i]] >> perm[j] & 1
            for i in range(n)
            for j in range(n)
        ):
            count += 1
    return count


def test_labeled_orbit_cross_check():
    # unlabeled classes weighted by orbit size give the labeled count
    for n in range(1, 5):
        labeled = len(_labeled_posets(n))
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        total = sum(fact // automorphism_count(p) for p in enumerate_posets(n))
        assert total == labeled
    assert len(_labeled_posets(3)) == 19
    assert len(_labeled_posets(4)) == 219


def test_rooted_orbit_cross_check():
    # labeled rooted posets on n points = n * labeled posets on n-1 points
    for n in range(2, 6):
        labeled_rest = len(_labeled_posets(n - 1))
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        total = sum(fact // automorphism_count(p) for p in enumerate_rooted(n))
        assert total == n * labeled_rest


def test_sum_width_invariant():
    posets = [p for n in range(1, 5) for p in enumerate_rooted(n)]
    for p in posets:
        for q in posets:
            assert width(sum_posets(p, q)) == max(width(p), width(q))


def test_sum_width_invariant_on_catalog_pairs():
    from ipckit.catalog import catalog_get, catalog_keys

    rooted = []
    for key in catalog_keys():
        if "(" in key and not key.split("(")[1][:1].isdigit():
            continue  # parameterized placeholders like F(n)
        p = catalog_get(key)
        if p.n <= 6 and root(p) is not None:
            rooted.append(p)
    assert len(rooted) > 10
    for p in rooted:
        for q in rooted:
            assert width(sum_posets(p, q)) == max(width(p), width(q))


def test_sum_associativity():
    posets = [p for n in range(0, 5) for p in enumerate_posets(n)]
    pair = {}
    for a in posets:
        for b in posets:
            pair[id(a), id(b)] = sum_posets(a, b)
    for a, b, c in itertools.product(posets, repeat=3):
        left = sum_posets(pair[id(a), id(b)], c)
        right = sum_posets(a, pair[id(b), id(c)])
        assert canonical_code(left) == canonical_code(right)
