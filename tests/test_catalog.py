"""Frame catalog: transcription data, parameterized families, keys."""

from __future__ import annotations

import random

import pytest

from ipckit.axioms import validates_subframe
from ipckit.catalog import (
    catalog_get,
    chain,
    fan,
    gn_trunc,
    ladder_top_segment,
    ladder_trunc,
    ladder_upset,
    one_point,
    parse_key,
    rn_member,
    simple_space,
    two_antichain,
    xm_trunc,
    y_poset,
)
from ipckit.cli import main
from ipckit.errors import DuplicateElement, ParameterOutOfRange, UnknownKey
from ipckit.morphisms import epartitions, quotient
from ipckit.poset import (
    are_isomorphic,
    build_poset,
    canonical_code,
    enumerate_posets,
    root,
    stack,
    sum_posets,
    width,
)
from _oracle_stack import (
    ladder,
    ladder_top_segment_by_restriction,
    ladder_trunc_by_covers,
    ladder_upset_at_depth_24,
    stack_by_covers,
)

EXPECTED_SIZES = {
    "P(1)": 4, "P(2)": 5, "P(3)": 5,
    "K(1)": 5, "K(2)": 6, "K(3)": 6, "K(4)": 7, "K(5)": 6, "K(6)": 7, "K(7)": 7,
    "G(1)": 5, "G(2)": 6, "G(3)": 7, "G(4)": 6, "G(5)": 6, "G(6)": 7,
    "BW1(1)": 3, "BW1(2)": 4,
    "BW2(1)": 4, "BW2(2)": 5, "BW2(3)": 5, "BW2(4)": 5, "BW2(5)": 6,
    "BW2(6)": 6, "BW2(7)": 6, "BW2(8)": 6, "BW2(9)": 7, "BW2(10)": 7,
    "BW2(11)": 7,
    "Z_K(1)": 7, "Z_K(2)": 8, "Z_K(3)": 9, "Z_K(4)": 8,
    "Z_G(1)": 6, "Z_G(2)": 7, "Z_G(3)": 7,
}

# multiset of cover-relation degrees (down, up) per element, frozen from
# the transcription data
EXPECTED_DEGREES = {
    "P(2)": [(0, 2), (1, 1), (1, 1), (1, 0), (1, 0)],
    "P(3)": [(0, 2), (1, 0), (1, 1), (1, 1), (1, 0)],
    "K(5)": [(0, 2), (1, 2), (1, 1), (1, 0), (1, 1), (2, 0)],
    "G(5)": [(0, 2), (1, 1), (1, 1), (1, 2), (2, 0), (1, 0)],
    "BW2(8)": [(0, 2), (1, 2), (1, 2), (1, 0), (2, 0), (1, 0)],
}


def _cover_degrees(p):
    ups = [0] * p.n
    downs = [0] * p.n
    for i, j in p.covers():
        ups[i] += 1
        downs[j] += 1
    return sorted(zip(downs, ups))


def test_named_sizes_and_roots():
    for key, size in EXPECTED_SIZES.items():
        p = catalog_get(key)
        assert p.n == size, key
        assert root(p) is not None, key


def test_degree_sequences():
    for key, degrees in EXPECTED_DEGREES.items():
        assert _cover_degrees(catalog_get(key)) == sorted(degrees), key


def test_structural_identities():
    def with_top(p):
        mx = [p.elements[i] for i in range(p.n) if p.strict_up(i) == 0]
        els = list(p.elements) + ["TT"]
        cov = [(p.elements[i], p.elements[j]) for i, j in p.covers()]
        cov += [(m, "TT") for m in mx]
        return build_poset(els, cov)

    assert are_isomorphic(catalog_get("K1"), catalog_get("P2"))
    assert are_isomorphic(catalog_get("G1"), catalog_get("P3"))
    assert are_isomorphic(catalog_get("K3"), with_top(catalog_get("K1")))
    assert are_isomorphic(catalog_get("K4"), with_top(catalog_get("K2")))
    assert are_isomorphic(catalog_get("G3"), with_top(catalog_get("G2")))
    assert are_isomorphic(catalog_get("G4"), with_top(catalog_get("G1")))


def test_bw2_frames_have_width_three():
    for i in range(1, 12):
        assert width(catalog_get(f"BW2({i})")) == 3


def test_fan():
    f3 = catalog_get("F(3)")
    assert f3.n == 4 and width(f3) == 3
    assert are_isomorphic(f3, catalog_get("P1"))
    with pytest.raises(ParameterOutOfRange):
        fan(0)


def test_ladder_upsets():
    assert are_isomorphic(ladder_upset(0), one_point())
    assert are_isomorphic(ladder_upset(1), one_point())
    assert are_isomorphic(ladder_upset(2), chain(2))
    assert are_isomorphic(ladder_upset(3), catalog_get("BW1(1)"))
    l4 = ladder_upset(4)
    assert l4.n == 4
    assert set(l4.elements) == {"w0", "w1", "w2", "w4"}
    for k in range(2, 12):
        assert ladder_upset(k).n == k
    with pytest.raises(ParameterOutOfRange):
        ladder_upset(-1)


def test_ladder_upsets_match_the_depth_24_oracle():
    for k in range(24):
        new, old = ladder_upset(k), ladder_upset_at_depth_24(k)
        assert (new.elements, new.up, new.name) == (old.elements, old.up, old.name), k
    # no depth bounds k: L(k) is listed for every k
    assert ladder_upset(30).n == 30
    assert main(["catalog", "L(30)"]) == 0


def test_ladder_cover_pattern():
    lad = ladder_top_segment(9)
    covers = {(lad.elements[i], lad.elements[j]) for i, j in lad.covers()}
    for n in range(2, 10):
        assert (f"w{n}", f"w{n-2}") in covers
        if n >= 3:
            assert (f"w{n}", f"w{n-3}") in covers
    assert len(covers) == 8 + 7


def test_ladder_top_segment_matches_the_restriction_oracle():
    for m in range(31):
        new, old = ladder_top_segment(m), ladder_top_segment_by_restriction(m)
        assert (new.elements, new.up, new.name) == (old.elements, old.up, old.name), m
    with pytest.raises(ParameterOutOfRange):
        ladder_top_segment(-1)


def test_ladder_top_segment_is_the_old_ladder_named_t():
    for m in range(31):
        new, old = ladder_top_segment(m), ladder(m + 1)
        assert (new.elements, new.up, new.name) == (old.elements, old.up, f"T({m})"), m
        assert ladder_top_segment(m) is new


def test_simple_space():
    assert are_isomorphic(simple_space([1]), one_point())
    assert are_isomorphic(simple_space([2]), two_antichain())
    d = simple_space([1, 2, 1])
    assert d.n == 4 and width(d) == 2 and root(d) is not None
    assert simple_space([]).n == 0
    with pytest.raises(ParameterOutOfRange):
        simple_space([3])


def test_rn_member_shapes():
    assert are_isomorphic(rn_member((), k=0), chain(2))
    m = rn_member((2,), m=1)
    assert m.n == 1 + 2 + 1 + 4 + 1
    assert root(m) is not None
    with pytest.raises(ParameterOutOfRange):
        rn_member((), k=1, m=1)


def test_rn_members_match_stack_builder():
    # scenarios.rn_members builds its word members with rn_member; the old
    # block-by-block stack builder must give the same representatives
    from ipckit.scenarios import rn_members

    import _oracle_rn as oracle

    for size in range(1, 11):
        for n in range(4):
            got = {canonical_code(p): p.up for p in rn_members(size, n)}
            want = {canonical_code(p): p.up for p, _ in oracle.rn_members(size, n)}
            assert got == want, (size, n)


def test_rn_members_match_build_then_filter_oracle():
    # stopping each loop at the first member too big keeps every member
    # and its representative, in the same order; the oracle keeps the
    # member of least chain parameter, so the first member built for each
    # code is that one
    from ipckit.scenarios import rn_members

    import _oracle_rn as oracle

    for size in range(1, 9):
        for n in range(4):
            got = [(p.elements, p.up) for p in rn_members(size, n)]
            want = [(p.elements, p.up) for p, _ in oracle.rn_members_filtered(size, n)]
            assert got == want, (size, n)


class _Recorded(set):
    """A set that records every membership query."""

    def __init__(self, items):
        super().__init__(items)
        self.asked = set()

    def __contains__(self, code):
        self.asked.add(code)
        return super().__contains__(code)


def test_rn_closure_escape_matches_every_upset_oracle():
    # acceptance family: every member is rooted and passes both checks
    from ipckit.scenarios import rn_closure_escape, rn_members

    import _oracle_rn as oracle

    members = rn_members(8, 2)
    codes = {canonical_code(p) for p in members}
    assert all(root(p) is not None for p in members)
    asked = {}
    for check in (rn_closure_escape, oracle.rn_closure_escape):
        asked[check] = []
        for p in members:
            seen = _Recorded(codes)
            assert check(p, seen) is None
            asked[check].append(seen.asked)
    # each member's code removed in turn: both checks fail at the same
    # members.  A passing check asks for codes in a fixed order and stops
    # at its first miss, so without code c it fails exactly where its full
    # run asked for c; two removals are also run outright
    for c in codes:
        new = [c in a for a in asked[rn_closure_escape]]
        assert new == [c in a for a in asked[oracle.rn_closure_escape]]
        assert any(new)
    for c in (min(codes), max(codes)):
        fewer = codes - {c}
        assert [rn_closure_escape(p, fewer) is None for p in members] == \
            [oracle.rn_closure_escape(p, fewer) is None for p in members]


def test_rn_closure_escape_checks_principal_upsets():
    # up(x) of this rooted poset is a 3-fan, which is no quotient of the
    # whole: with only the quotients' codes allowed, step (1) must fail
    from ipckit.scenarios import rn_closure_escape

    import _oracle_rn as oracle

    p = build_poset(["r", "x", "y", "a", "b", "c"],
                    [("r", "x"), ("r", "y"), ("x", "a"), ("x", "b"),
                     ("x", "c"), ("y", "a"), ("y", "b")])
    fan3 = canonical_code(p.restrict(p.up[p.index("x")]))
    images = {canonical_code(quotient(p, part)[0]) for part in epartitions(p)}
    assert fan3 not in images
    assert rn_closure_escape(p, images) == \
        f"principal upset {fan3.decode()} escapes the family"
    assert oracle.rn_closure_escape(p, images) is not None


def test_quotient_codes_by_reductions_match_every_epartition():
    # de Jongh-Troelstra: the quotient classes read off one-step alpha and
    # beta reductions are those of every E-partition, on every poset of at
    # most 6 points, rooted or not
    from ipckit.scenarios import _quotient_codes

    import _oracle_rn as oracle

    count = 0
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert _quotient_codes(p, {}) == oracle.quotient_codes(p), p
            count += 1
    assert count == 405


def test_rn_closure_escape_detail_ignores_the_memo():
    # with each member code removed in turn, every member's detail is the
    # same with a cold memo and with one memo warmed through the members
    # forwards or backwards
    from ipckit.scenarios import rn_closure_escape, rn_members

    members = rn_members(8, 2)
    codes = {canonical_code(p) for p in members}
    failing = 0
    for c in sorted(codes):
        fewer = codes - {c}
        cold = [rn_closure_escape(p, fewer, {}) for p in members]
        forwards, backwards = {}, {}
        assert [rn_closure_escape(p, fewer, forwards) for p in members] == cold
        assert [rn_closure_escape(p, fewer, backwards)
                for p in members[::-1]] == cold[::-1]
        failing += sum(detail is not None for detail in cold)
    assert failing > 0


def _all_words(weight):
    out = [()]
    frontier = [()]
    while frontier:
        nxt = []
        for w in frontier:
            for k in (1, 2):
                if sum(w) + k <= weight:
                    nw = w + (k,)
                    out.append(nw)
                    nxt.append(nw)
        frontier = nxt
    return out


def test_words_upto_matches_breadth_first_words():
    from ipckit.scenarios import _words_upto

    for weight in range(11):
        assert _words_upto(weight) == _all_words(weight), weight


def test_rn_members_validate_subframe_axioms():
    # every family member of size <= 10, plus size <= 12 spot checks
    axioms = [catalog_get(f"P({i})") for i in (1, 2, 3)]
    cases = []
    for word in _all_words(8):
        for k in range(0, 9):
            p = rn_member(word, k=k)
            if p.n <= 10:
                cases.append(p)
        for m in range(0, 4):
            p = rn_member(word, m=m)
            if p.n <= 10:
                cases.append(p)
    cases.append(rn_member((2, 1, 2), m=1))
    cases.append(rn_member((1, 2, 2), k=6))
    assert all(c.n <= 12 for c in cases)
    for p in cases:
        assert root(p) is not None
        for a in axioms:
            assert validates_subframe(p, a), (p.elements, a.name)


def test_y_poset():
    y1 = y_poset(1)
    assert y1.n == 13
    assert root(y1) == "bot"
    # d is the maximum
    d = y1.index("d")
    assert all(y1.up[i] >> d & 1 for i in range(y1.n))
    for m in range(1, 5):
        assert y_poset(m).n == 11 + 2 * m


def test_xm_trunc_width():
    for nlevels in (1, 3, 6):
        x = xm_trunc(1, 3, nlevels)
        assert width(x) == 4
    x = xm_trunc(2, 4, 4)
    assert width(x) == 5
    assert root(x) is not None


def test_gn_trunc():
    g = gn_trunc(2, 8)
    assert g.n == 1 + 9 + 4 + 2
    assert root(g) is not None
    # top point is the maximum
    t = g.index("t.top")
    assert all(g.up[i] >> t & 1 for i in range(g.n))


def test_ladder_trunc():
    lt = ladder_trunc(6)
    assert lt.n == 7
    assert root(lt) == "omega"


def test_stack_orders_blocks():
    s = stack([("a", one_point()), ("b", two_antichain()), ("c", one_point())])
    assert root(s) == "c.pt"
    assert s.n == 4 and width(s) == 2


def _built(build, *args):
    try:
        p = build(*args)
    except DuplicateElement as exc:
        return "duplicate", str(exc)
    return p.elements, p.up, p.name


def test_sums_from_masks_match_the_cover_closure_oracle():
    small = [p for n in range(5) for p in enumerate_posets(n)]
    rng = random.Random(41)
    for _ in range(3000):
        # three tags over up to four blocks: some lists repeat a tag
        blocks = [(rng.choice("abc"), rng.choice(small))
                  for _ in range(rng.randrange(5))]
        name = rng.choice([None, "s"])
        assert _built(stack, blocks, name) == _built(stack_by_covers, blocks, name)
    for p in small:
        for q in small:
            got = sum_posets(p, q)
            if p.n == 0 or q.n == 0:
                assert got is (q if p.n == 0 else p)
            else:
                want = stack_by_covers([("t", p), ("b", q)])
                assert (got.elements, got.up, got.name) == (
                    want.elements, want.up, want.name)
    for k in range(1, 14):
        assert _built(ladder_trunc, k) == _built(ladder_trunc_by_covers, k)


def test_key_parsing():
    assert parse_key("K3") == parse_key("K(3)")
    assert parse_key("BW2_7") == parse_key("BW2(7)")
    assert parse_key("ZK1") == parse_key("Z_K(1)")
    assert str(parse_key("Gn_trunc(2, 8)")) == "Gn_trunc(2,8)"
    with pytest.raises(UnknownKey):
        catalog_get("Q9")
    with pytest.raises(ParameterOutOfRange):
        catalog_get("K(9)")
    with pytest.raises(ParameterOutOfRange):
        catalog_get("Y(0)")


@pytest.mark.parametrize("key", ["K(0)", "BW2(12)"])
def test_catalog_names_an_out_of_range_key_as_given(key, capsys):
    # not the internal table entry (K0, BW2_12) the family would have read
    assert main(["catalog", key]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: ParameterOutOfRange: {key}\n"


def test_codes_are_stable_across_calls():
    a = canonical_code(catalog_get("K6"))
    b = canonical_code(catalog_get("K(6)"))
    assert a == b
