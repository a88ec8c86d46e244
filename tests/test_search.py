"""The fused top-down image search against its oracles: the walk it
replaced, node for node, and the restrict-per-candidate searches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipckit import morphisms
from ipckit.budget import WorkMeter
from ipckit.catalog import catalog_get
from ipckit.errors import BudgetExceeded
from ipckit.morphisms import _search, find_pmorphism, image_of_subposet, image_of_upset
from ipckit.poset import Poset, _bits, build_poset, enumerate_posets, enumerate_rooted
from ipckit.scenarios import run_scenario
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


def _walks(host):
    """The searches the three modes run on host, as _search arguments
    after the target: every principal upset (image_of_upset), the whole
    host with points left out (image_of_subposet), and the whole host
    into and onto the target (find_pmorphism)."""
    order = host.topdown
    for x in range(host.n):
        yield [i for i in order if host.up[x] >> i & 1], False, True
    yield order, True, True
    yield order, False, False
    yield order, False, True


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_hosts(), st.sampled_from(CATALOG_TARGETS))
def test_search_walks_the_oracle_walk(host, name):
    # the same result and the same node count, so every work unit and
    # every budget trip point stays where the walk that read the kept
    # images off all of strict_up put it
    target = catalog_get(name)
    for domain, skip, surjective in _walks(host):
        m_new, m_old = WorkMeter(), WorkMeter()
        new = _search(host, target, domain, skip, surjective, m_new)
        old = oracle.search(host, target, domain, skip, surjective, m_old)
        assert new == old, (host.up, domain, skip, surjective)
        assert m_new.spent == m_old.spent, (host.up, domain, skip, surjective)


# the subframe scenarios at their acceptance parameters
SKIP_SCENARIOS = [("appendix-K", {"size": 8}), ("appendix-G", {"size": 8}),
                  ("bw-subframe-triangle", {"size": 6, "ns": (1, 2)}),
                  ("kg-structure", {"size": 8})]


def test_skip_walks_answer_as_the_walk_that_skips_twice(monkeypatch):
    # every skip walk these scenarios make returns the value and the map
    # of the walk that also entered the skip branch after mapping x to
    # the t with up(t) == S, and counts at most its nodes
    walks = []

    def record(host, target, domain, skip, surjective, meter):
        if skip:
            walks.append((host, target, list(domain), surjective))
        return _search(host, target, domain, skip, surjective, meter)

    monkeypatch.setattr(morphisms, "_search", record)
    for name, params in SKIP_SCENARIOS:
        assert run_scenario(name, params).status == "pass", name
    monkeypatch.undo()
    assert len(walks) == 3621
    spent_new = spent_old = 0
    for host, target, domain, surjective in walks:
        m_new, m_old = WorkMeter(), WorkMeter()
        new = _search(host, target, domain, True, surjective, m_new)
        old = oracle.fused_search(host, target, domain, True, surjective, m_old)
        assert new == old, (host.up, target.up)
        assert m_new.spent <= m_old.spent, (host.up, target.up)
        spent_new += m_new.spent
        spent_old += m_old.spent
    assert (spent_new, spent_old) == (263877, 827683)


# (host in POSETS67, target): nodes of its longest walk, for pairs whose
# longest walk is one of the longest for that target, and (1032, P2) and
# (573, P(3)), which held the longest P2 and P(3) walks while the skip
# branch still repeated the candidate with up(t) = S.  In the BW2(11)
# pair the host and the target both have 7 points, so every onto walk is
# tight from its root and many limits fall on children cut at their
# parent, both mapped and skipped (49 and 1 in its skip walk).
LONG_WALKS = {(493, "P2"): 366, (364, "P(3)"): 287, (383, "G(5)"): 109,
              (1001, "BW2(7)"): 495, (1001, "BW2(11)"): 67,
              (1032, "P2"): 256, (573, "P(3)"): 219}


@pytest.mark.parametrize("host_index, name", LONG_WALKS)
def test_search_trips_at_every_limit(host_index, name):
    # charged once per search, the walk still stops at the first node past
    # what the meter has left, with spent == limit + 1, and a meter that
    # arrives part spent keeps its earlier units
    host, target = POSETS67[host_index], catalog_get(name)
    longest = 0
    for domain, skip, surjective in _walks(host):
        full = WorkMeter()
        answer = _search(host, target, domain, skip, surjective, full)
        longest = max(longest, full.spent)
        for limit in range(full.spent):
            for before in (0, 3):
                meter = WorkMeter(limit=limit + before)
                meter.spent = before
                with pytest.raises(BudgetExceeded):
                    _search(host, target, domain, skip, surjective, meter)
                assert meter.spent == limit + before + 1
        meter = WorkMeter(limit=full.spent)
        assert _search(host, target, domain, skip, surjective, meter) == answer
        assert meter.spent == full.spent
    assert longest == LONG_WALKS[host_index, name]


def test_search_cuts_the_root_of_a_short_onto_walk():
    # an onto walk over fewer points than its target is cut at the root,
    # which counts as one node: over every principal upset and the whole
    # of each small host, and the 6-point antichain's up(0) onto P(1),
    # which a walk that cut only children counted as 4 nodes
    cases = [(build_poset("abcdef", []), [0], catalog_get("P(1)"))]
    for host in HOSTS5:
        for name in CATALOG_TARGETS:
            target = catalog_get(name)
            for domain, skip, surjective in _walks(host):
                if surjective and not skip and len(domain) < target.n:
                    cases.append((host, domain, target))
    assert len(cases) > 1000
    for host, domain, target in cases:
        for search in (_search, oracle.search):
            meter = WorkMeter()
            assert search(host, target, domain, False, True, meter) is None
            assert meter.spent == 1
            meter = WorkMeter(limit=0)
            with pytest.raises(BudgetExceeded):
                search(host, target, domain, False, True, meter)
            assert meter.spent == 1


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
