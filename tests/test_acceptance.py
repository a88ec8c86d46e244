"""Acceptance gate: every criterion at its stated instance space.

Each test runs one criterion exhaustively (all checks are discrete,
tolerance zero) and prints a pass/fail line; run with -v to see one
result line per criterion, or -s to see the printed summary lines.
"""

from __future__ import annotations

import hashlib

import pytest

from ipckit import poset, scenarios
from ipckit.errors import ParameterOutOfRange
from ipckit.report import render_report
from ipckit.scenarios import run_scenario, scenario_names


def _criterion(number, name, params, counts):
    report = run_scenario(name, params)
    outcome = "PASS" if report.status == "pass" else report.status.upper()
    print(f"criterion {number:>2} {name}: {outcome} "
          f"({report.instances_checked} instances, {report.work_units} work units)")
    assert report.status == "pass", render_report(report, "text")
    # (instances_checked, work_units): a change that moves them on purpose
    # updates these figures
    assert (report.instances_checked, report.work_units) == counts
    return report


def test_criterion_01_sobolev_width():
    # rooted posets up to 6, n in {1,2,3}: bw(n) valid iff width <= n
    _criterion(1, "sobolev-width", {"size": 6, "ns": (1, 2, 3)}, (88, 1751282))


def test_criterion_02_bw_subframe_triangle():
    # same space, n in {1,2}: bw(n) valid iff the fan subframe axiom holds
    _criterion(2, "bw-subframe-triangle", {"size": 6, "ns": (1, 2)}, (88, 51466))


def test_criterion_03_kracht_bw2():
    # rooted posets up to 7: width <= 2 iff all eleven splitting axioms hold
    _criterion(3, "kracht-bw2", {"size": 7}, (406, 23661))


def test_criterion_04_appendix_k():
    # rooted width-<=2 posets up to 8: beta(P2) iff the seven K splittings
    _criterion(4, "appendix-K", {"size": 8}, (344, 80113))


def test_criterion_05_appendix_g():
    # rooted width-<=2 posets up to 8 validating beta(P2):
    # beta(P3) iff the six G splittings
    _criterion(5, "appendix-G", {"size": 8}, (208, 40692))


def test_criterion_06_duality_counts():
    # counts match up to 4 elements; dual round trip up to 6
    _criterion(6, "duality-counts", {"size": 4, "dual_size": 6}, (431, 0))


def test_criterion_07_godel_transfer():
    # posets up to 5 and 200 fixed formulas; grz valid everywhere
    _criterion(7, "godel-transfer", {"size": 5, "formulas": 200}, (87, 7756020))


def test_criterion_08_jankov_oracle():
    # rooted targets up to 4, hosts up to 5:
    # syntactic splitting formula valid iff no upset maps onto the target
    _criterion(8, "jankov-oracle", {"target_size": 4, "host_size": 5}, (783, 16362426))


def test_criterion_09_ym_rigidity():
    # surjections Y(k) -> Y(m) exist iff k = m; the documented collapse
    # maps the truncated tower onto Y(m)
    _criterion(9, "ym-rigidity", {"max_m": 4, "trunc": 8}, (20, 13091))


def test_criterion_10_rn_closure():
    # family of members of size <= 8 (n = 2) closed under rooted images of
    # upsets, and the chain-extended shape is not an image
    _criterion(10, "rn-closure", {"size": 8, "n": 2}, (106, 76))


def test_criterion_10_budget_trips():
    # the closure instances charge nothing, so every trip falls in a
    # negative instance's image search: (instances_checked, work_units)
    params = {"size": 8, "n": 2}
    for budget, counts in ((5, (90, 6)), (40, (98, 48)), (75, (104, 76))):
        report = run_scenario("rn-closure", params, budget=budget)
        assert report.status == "budget", budget
        assert (report.instances_checked, report.work_units) == counts, budget


def test_criterion_11_kg_structure():
    # rooted posets up to 8: sum decomposition exists iff the three
    # subframe axioms hold
    _criterion(11, "kg-structure", {"size": 8}, (2451, 174954))


def test_criterion_12_pm_constructions():
    # the explicit collapse maps on truncations pass the validator
    _criterion(12, "pm-constructions", {"max_n": 3, "trunc": 12}, (12, 0))


def _failing(name, params):
    """(name, size, detail) of each counterexample of a run, and a digest
    of its JSON report, which holds the posets."""
    r = run_scenario(name, params, max_counterexamples=100)
    assert r.status == "fail"
    return ([(c.poset.name, c.poset.n, c.detail) for c in r.counterexamples],
            hashlib.sha256(r.to_json().encode()).hexdigest()[:16])


def test_criteria_09_and_12_name_each_failing_map(monkeypatch):
    # with every collapse refused and every search answered alike, each
    # instance reports the poset and the map the criterion pins it to
    # (the same figures as the tag-dispatched checks before them gave)
    monkeypatch.setattr(scenarios, "_collapse", lambda src, dst, image: False)
    params = {"max_m": 4, "trunc": 8}
    collapses = [(f"Y({m})", 11 + 2 * m, "collapse map not onto") for m in range(1, 5)]
    monkeypatch.setattr(scenarios, "find_pmorphism", lambda *args, **kwargs: None)
    assert _failing("ym-rigidity", params) == ([
        (f"Y({k})", 11 + 2 * k, f"surjection Y({k})->Y({k}) missing") for k in range(1, 5)
    ] + collapses, "fc08ebc04ec08b6c")
    monkeypatch.setattr(scenarios, "find_pmorphism", lambda *args, **kwargs: object())
    assert _failing("ym-rigidity", params) == ([
        (f"Y({k})", 11 + 2 * k, f"surjection Y({k})->Y({m}) found")
        for k in range(1, 5) for m in range(1, 5) if k != m
    ] + collapses, "b73f6fa3cdd925d4")
    sources = [(f"G({n},12)", 18 + n) for n in range(1, 4) for _ in range(n + 1)]
    sources += [(None, 20), (None, 21), (None, 22)]  # one, two and 1+2 points in the middle
    assert _failing("pm-constructions", {"max_n": 3, "trunc": 12}) == (
        [(*src, "not onto") for src in sources], "39b86f0c343f8b7b")


def test_bad_truncation_is_refused_before_any_instance():
    # the collapse instances are built before the first one runs, so a
    # truncation the towers cannot take is refused at every budget
    for name in ("ym-rigidity", "pm-constructions"):
        for budget in (None, 0, 1, 10 ** 6):
            with pytest.raises(ParameterOutOfRange):
                run_scenario(name, {"trunc": 0}, budget=budget)


_SMALL_PARAMS = {
    "sobolev-width": {"size": 4},
    "bw-subframe-triangle": {"size": 4},
    "kracht-bw2": {"size": 4},
    "appendix-K": {"size": 5},
    "appendix-G": {"size": 5},
    "duality-counts": {"size": 3, "dual_size": 3},
    "godel-transfer": {"size": 3, "formulas": 25},
    "jankov-oracle": {"target_size": 2, "host_size": 3},
    "ym-rigidity": {"max_m": 2, "trunc": 5},
    "rn-closure": {"size": 6, "n": 1},
    "kg-structure": {"size": 5},
    "pm-constructions": {"max_n": 1, "trunc": 5},
}


def test_criterion_13_determinism():
    # every registered scenario, run twice with equal flags, renders
    # byte-identical JSON
    assert set(_SMALL_PARAMS) == set(scenario_names())
    for name, params in sorted(_SMALL_PARAMS.items()):
        first = render_report(run_scenario(name, params), "json")
        second = render_report(run_scenario(name, params), "json")
        assert first == second, name
    print("criterion 13 determinism: PASS "
          f"({len(_SMALL_PARAMS)} scenarios, two runs each)")


def test_determinism_across_worker_counts():
    # parallel aggregation sorts by instance order, so jobs must not matter
    # godel-transfer opens a node-value block in each forked worker
    # rn-closure's forked workers each fill their own copy of its memo
    for name in ("sobolev-width", "ym-rigidity", "kg-structure", "appendix-G",
                 "godel-transfer", "rn-closure"):
        params = _SMALL_PARAMS[name]
        seq = render_report(run_scenario(name, params, jobs=1), "json")
        par = render_report(run_scenario(name, params, jobs=2), "json")
        assert seq == par, name


def test_search_reports_alike_with_the_rooted_cache_cold_or_warm():
    # the rooted scenarios share the cached rooted posets and their memos
    # within a process; which one builds them must not matter
    names = ["kg-structure", "kracht-bw2", "appendix-K", "appendix-G"]
    params = {"size": 6}
    cold = {}
    for name in names:
        poset._rooted.cache_clear()
        cold[name] = render_report(run_scenario(name, params), "json")
    for order in (names, names[::-1]):
        poset._rooted.cache_clear()
        for name in order:
            assert render_report(run_scenario(name, params), "json") == cold[name], name


def test_budget_trips_alike_across_worker_counts():
    # jobs=2 aggregates while its pool runs and stops it at the trip; the
    # report must be jobs=1's at budgets that trip in the first, a middle
    # and the last of the pool's chunks (306 instances each, 2,451 in all)
    params = {"size": 8}
    chunk = 2451 // 8
    for budget, where in ((1000, 0), (76000, 4), (174500, 8)):
        seq = run_scenario("kg-structure", params, budget=budget, jobs=1)
        assert seq.status == "budget"
        assert seq.instances_checked // chunk == where, budget
        par = run_scenario("kg-structure", params, budget=budget, jobs=2)
        assert render_report(par, "json") == render_report(seq, "json"), budget
