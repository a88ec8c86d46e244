"""Satisfaction and validity on frames, with algebras as the oracle."""

from __future__ import annotations

import contextlib
import gc
import importlib
import pkgutil
import random
import time
import tracemalloc

import pytest

import ipckit
from ipckit import formulas, scenarios, semantics
from ipckit.budget import WorkMeter
from ipckit.errors import BudgetExceeded
from ipckit.formulas import BOT, Imp, Var, bw, godel_translate, grz_axiom, parse
from ipckit.heyting import upset_algebra
from ipckit.morphisms import image_of_subposet
from ipckit.poset import Poset, build_poset, enumerate_posets, enumerate_rooted, upset_masks, width
from ipckit.scenarios import run_scenario
from ipckit.semantics import (
    _evaluate,
    _held,
    is_valid,
    is_valid_modal,
    scan_plan,
    scan_validity,
    shared_node_values,
)
from _oracle_heyting import is_valid_algebra
from helpers import random_formula as _random_formula

ONE = build_poset(["o"], [])
CH2 = build_poset(["a", "b"], [("a", "b")])
F3 = build_poset(["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("r", "c")])


def truth_set(p, valuation, f):
    """Mask of the points of p where f holds, valuation mapping each
    variable index to a point mask, by the scans' own evaluator on a
    single valuation row."""
    plan = scan_plan(f)
    slots = [_held(p.n, (valuation[v],), 1) for v in plan.vars]
    truth = _evaluate(plan.nodes, slots, p, 1, {}, False)
    return sum(t << x for x, t in enumerate(truth))


def test_eval_at_examples():
    # CH2 is a < b; p0 holds at b only
    v = {0: 0b10}
    assert truth_set(CH2, v, parse("p0")) == 0b10
    assert truth_set(CH2, v, parse("~p0")) == 0
    assert truth_set(CH2, v, parse("p0 | ~p0")) == 0b10  # fails at a
    assert truth_set(CH2, v, BOT) == 0


def test_is_valid_examples():
    assert is_valid(ONE, parse("p0 | ~p0"))
    assert not is_valid(CH2, parse("p0 | ~p0"))
    assert not is_valid(F3, bw(2))
    assert is_valid(F3, bw(3))


def test_modal_examples():
    assert is_valid_modal(CH2, parse("[]p0 -> p0"))
    assert not is_valid_modal(CH2, parse("p0 -> []p0"))
    for n in range(1, 6):
        for p in enumerate_posets(n):
            assert is_valid_modal(p, grz_axiom())


def test_classical_tautologies_are_modally_valid():
    # a modal scan reads -> materially, so these hold on every frame, though
    # the 2-chain refutes the first three intuitionistically
    fs = [parse("p0 | ~p0"), parse("~~p0 -> p0"), parse("((p0 -> p1) -> p0) -> p0"),
          parse("(p0 -> p1) | (p1 -> p0)")]
    assert not any(is_valid(CH2, f) for f in fs[:3])
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for f in fs:
                assert is_valid_modal(p, f), (p.up, f)


def test_algebra_validity_examples():
    assert not is_valid_algebra(upset_algebra(CH2), parse("p0 | ~p0"))
    assert is_valid_algebra(upset_algebra(ONE), parse("p0 | ~p0"))


def test_frame_algebra_agreement():
    fs = [bw(1), parse("p0 | ~p0"), parse("~~p0 -> p0"),
          parse("~p0 | ~~p0"), parse("(p0 -> p1) | (p1 -> p0)"),
          parse("p0 & p1 -> p0")]
    for n in range(1, 5):
        for p in enumerate_posets(n):
            alg = upset_algebra(p)
            for f in fs:
                assert is_valid(p, f) == is_valid_algebra(alg, f)


def test_persistence():
    rng = random.Random(23)
    posets = [p for n in range(1, 6) for p in enumerate_posets(n)]
    for _ in range(400):
        p = rng.choice(posets)
        ups = upset_masks(p)
        f = _random_formula(rng, rng.randrange(0, 5))
        val = {v: rng.choice(ups) for v in range(3)}
        assert truth_set(p, val, f) in ups


def test_godel_transfer_small():
    rng = random.Random(29)
    posets = [p for n in range(1, 5) for p in enumerate_posets(n)]
    fs = [bw(1), parse("~p0 | ~~p0")] + [
        _random_formula(rng, rng.randrange(1, 5)) for _ in range(40)
    ]
    for p in posets:
        for f in fs:
            assert is_valid(p, f) == is_valid_modal(p, godel_translate(f))


def test_sobolev_triangle_small():
    from ipckit.catalog import fan

    for size in range(1, 6):
        for p in enumerate_rooted(size):
            for n in (1, 2):
                v = is_valid(p, bw(n))
                assert v == (width(p) <= n)
                assert v == (not image_of_subposet(fan(n + 1), p))


def test_budget_trips():
    meter = WorkMeter(limit=5)
    with pytest.raises(BudgetExceeded):
        is_valid(F3, bw(2), meter=meter)
    assert meter.spent == 5


def test_work_is_counted():
    meter = WorkMeter()
    is_valid(CH2, parse("p0 -> p0"), meter=meter)
    assert meter.spent == 3  # one row per upset of the 2-chain


def test_wide_poset_scans():
    els = [f"c{i}" for i in range(70)]
    wide = build_poset(els, [(els[i + 1], els[i]) for i in range(69)])
    assert is_valid(wide, parse("p0 -> p0"))
    assert not is_valid(wide, parse("p0 | ~p0"))


def test_wide_poset_budget():
    els = [f"c{i}" for i in range(70)]
    wide = build_poset(els, [(els[i + 1], els[i]) for i in range(69)])
    # 71 upsets per variable: the 71 * 71 rows of p0 -> p1 -> p0 span
    # two fast variables in one window, cut part-way by the budget
    meter = WorkMeter(limit=100)
    with pytest.raises(BudgetExceeded):
        is_valid(wide, parse("p0 -> (p1 -> p0)"), meter=meter)
    assert meter.spent == 100
    meter = WorkMeter(limit=71 * 71)
    assert is_valid(wide, parse("p0 -> (p1 -> p0)"), meter=meter)
    assert meter.spent == 71 * 71
    # p0 | ~p0 first fails where p0 is the second upset, the top alone
    meter = WorkMeter(limit=2)
    assert not is_valid(wide, parse("p0 | ~p0"), meter=meter)
    assert meter.spent == 2


def test_wide_modal_budget():
    # 2**20 subsets for p0: the budget stops the scan in its first window
    els = [f"a{i}" for i in range(20)]
    p = build_poset(els, [(els[0], e) for e in els[1:]])
    meter = WorkMeter(limit=10)
    with pytest.raises(BudgetExceeded):
        is_valid_modal(p, parse("p0 -> p0"), meter=meter)
    assert meter.spent == 10


# -- scan plans and their caches ----------------------------------------------

_CACHES = {name: fn for name, fn in vars(semantics).items() if hasattr(fn, "cache_info")}


def _clear_caches():
    for fn in _CACHES.values():
        fn.cache_clear()


def _ipckit_caches():
    """Every lru_cache an ipckit module defines, keyed module.name."""
    caches = {}
    for info in pkgutil.iter_modules(ipckit.__path__):
        module = importlib.import_module(f"ipckit.{info.name}")
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = fn
    return caches


def test_plan_caches_are_the_known_ones_and_bounded():
    assert sorted(_CACHES) == ["_fast_patterns", "scan_plan"]
    for name, fn in _CACHES.items():
        assert fn.cache_info().maxsize is not None, name
    # every lru_cache in ipckit says what bounds it; a sized one says its size
    caches = _ipckit_caches()
    assert len(caches) == 9
    for name, fn in caches.items():
        doc = " ".join((fn.__doc__ or "").split())
        bound = fn.cache_info().maxsize
        assert ("cache bound: " if bound is None else f"cache bound: {bound} ") in doc, name


def test_plan_matches_formula():
    f = parse("[](p2 -> p0) | ~p2")
    plan = scan_plan(f)
    assert plan.vars == (0, 2) and plan.nvars == 2 and plan.modal
    assert plan is scan_plan(parse("[](p2 -> p0) | ~p2"))  # equal formulas share
    assert scan_plan(godel_translate(bw(2))) is scan_plan(godel_translate(bw(2)))
    assert not scan_plan(bw(2)).modal and scan_plan(BOT).vars == ()


_RUNS = [
    ("godel-transfer", {"size": 3, "formulas": 20}, None),
    ("godel-transfer", {"size": 4, "formulas": 30}, 3000),
    ("sobolev-width", {"size": 5}, None),
    ("sobolev-width", {"size": 5}, 700),
    ("jankov-oracle", {"target_size": 3, "host_size": 4}, None),
    ("bw-subframe-triangle", {"size": 5}, 400),
]


def test_reports_with_warm_caches_equal_cold_ones():
    run = [run_scenario(n, prm, budget=b).to_json() for n, prm, b in _RUNS]
    warm = [run_scenario(n, prm, budget=b).to_json() for n, prm, b in _RUNS]
    cold = []
    for n, prm, b in _RUNS:
        _clear_caches()
        cold.append(run_scenario(n, prm, budget=b).to_json())
    assert run == warm == cold
    assert any('"status": "budget"' in r for r in cold)


# a cheap run of every scenario, each layer's caches included
_MIX = [
    ("godel-transfer", {"size": 4, "formulas": 60}),
    ("sobolev-width", {"size": 5}),
    ("bw-subframe-triangle", {"size": 5}),
    ("duality-counts", {"size": 4}),
    ("rn-closure", {"size": 6, "n": 1}),
    ("kg-structure", {"size": 5}),
    ("appendix-K", {"size": 5}),
    ("appendix-G", {"size": 5}),
    ("jankov-oracle", {"target_size": 3, "host_size": 4}),
    ("pm-constructions", {}),
    ("ym-rigidity", {}),
    ("kracht-bw2", {}),
]


def test_repeated_runs_keep_the_caches_bounded():
    # a long-running process: once the first round of the mix is done, a
    # rerun adds no entry to any cache in ipckit nor to the intern table,
    # and the sized plan caches stay within their size
    assert sorted(n for n, _ in _MIX) == scenarios.scenario_names()
    _clear_caches()
    caches = _ipckit_caches()
    sizes = []
    for _ in range(3):
        for name, params in _MIX:
            run_scenario(name, params)
        gc.collect()
        info = {name: fn.cache_info() for name, fn in _CACHES.items()}
        assert all(i.currsize <= i.maxsize for i in info.values())
        sizes.append(({name: fn.cache_info().currsize for name, fn in caches.items()},
                      len(formulas._interned)))
    assert sizes[0] == sizes[1] == sizes[2]


def _memos(p):
    return set(vars(p)) - {"elements", "up", "name"}


def test_scans_leave_only_the_order_memos_on_the_poset():
    # a scan reads the poset's own top-down order, covers and upsets
    p = build_poset(["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("a", "c")])
    assert _memos(p) == set()
    f = parse("(p0 -> p1) | ~p0")
    is_valid(p, f, meter=WorkMeter(5000))
    with pytest.raises(BudgetExceeded):  # a budgeted prefix of the upsets
        is_valid(p, parse("p0 -> p0"), meter=WorkMeter(3))
    is_valid_modal(p, godel_translate(f))
    scan_validity(p, scan_plan(f), upset_masks(p), None)
    assert _memos(p) == {"_peel", "upper_covers", "upsets"}
    # a budgeted prefix of a fresh poset's upsets is not kept on it
    q = Poset(p.elements, p.up)
    with pytest.raises(BudgetExceeded):
        is_valid(q, parse("p0 -> p0"), meter=WorkMeter(3))
    assert "upsets" not in _memos(q)
    # each order's complete domain is its own upsets
    g = parse("(p0 -> p1) | (p1 -> p0)")
    for r in [p for n in range(1, 5) for p in enumerate_posets(n)] + [F3]:
        is_valid(r, g)
        assert semantics._upset_domain(r, None) is r.upsets == tuple(upset_masks(r))


def test_budgeted_scans_match_full_domain_scans():
    # under a budget the scan reads only a prefix of the upsets: it must end
    # as a scan over every upset does, at every limit up to the row count
    fs = [parse("p0 | ~p0"), parse("(p0 -> p1) | (p1 -> p0)"), bw(2), parse("p0 -> p0")]
    for p in enumerate_posets(5):
        domain = upset_masks(p)
        for f in fs:
            plan = scan_plan(f)
            for limit in range(0, min(len(domain) ** plan.nvars, 40) + 2):
                status, work = scan_validity(p, plan, domain, limit)
                meter = WorkMeter(limit)
                try:
                    got = "valid" if is_valid(p, f, meter=meter) else "refuted"
                except BudgetExceeded:
                    got = "budget"
                assert (got, meter.spent) == (status, work), (p, f, limit)


def test_budget_bounds_the_upset_domain():
    # 2**28 upsets: the scan must not build them to spend ten rows
    antichain = build_poset([f"a{i}" for i in range(28)], [])
    meter = WorkMeter(10)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        is_valid(antichain, parse("p0 | ~p0"), meter=meter)
    assert time.perf_counter() - t0 < 1.0
    assert meter.spent == 10


def test_modal_domain_is_not_materialised():
    # 2**22 subsets per variable: ten rows must not cost a list of them
    p = build_poset([f"c{i}" for i in range(22)],
                    [(f"c{i}", f"c{i + 1}") for i in range(21)])
    f = parse("[]p0 -> p0")
    is_valid_modal(CH2, f)  # imports and plan outside the measurement
    tracemalloc.start()
    try:
        meter = WorkMeter(10)
        with pytest.raises(BudgetExceeded):
            is_valid_modal(p, f, meter=meter)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert meter.spent == 10
    assert peak < 1 << 20


# -- node values shared inside one block --------------------------------------


def _scans_on(p, fs, share=True):
    """(valid, work) of each formula's own intuitionistic and modal scan of
    p, all inside one shared_node_values(p) block when share is set."""
    out = []
    with shared_node_values(p) if share else contextlib.nullcontext():
        for f in fs:
            for is_valid_on, g in ((is_valid, f), (is_valid_modal, godel_translate(f))):
                meter = WorkMeter()
                out.append((is_valid_on(p, g, meter=meter), meter.spent))
    return out


def _no_tables_left():
    return semantics._block == (None, {})


def _check_plan(plan):
    """Each node of a plan is distinct, reads a slot of the plan if it is a
    variable, has its children earlier in the plan, and is the one node of
    its structure (rebuilding it from its fields gives it back)."""
    seen = set()
    for node in plan.nodes:
        fields = [getattr(node, name) for name in type(node).__slots__]
        if isinstance(node, Var):
            assert 0 <= node.index < plan.nvars
        else:
            assert all(child in seen for child in fields)
        assert type(node)(*fields) is node
        seen.add(node)
    assert len(seen) == len(plan.nodes)


def test_node_ids_name_slot_renamed_structures():
    # p0 -> p2 and p1 -> p3 both read slot 0 -> slot 1: one node
    a, b = scan_plan(parse("p0 -> p2")), scan_plan(parse("p1 -> p3"))
    assert a.nodes == b.nodes
    assert a.nodes[-1] is Imp(Var(0), Var(1))
    f = scan_plan(parse("(p0 -> p1) | ~(p0 -> p1)"))
    assert len(f.nodes) == 6  # nine subformula occurrences, with p0, p1 and p0 -> p1 once
    assert f.nodes[2] is a.nodes[-1]  # the shared p0 -> p1
    for plan in (a, b, f):
        _check_plan(plan)


def test_block_shares_only_its_own_posets_values():
    # inside a block for p, scans of p share node values, and scans of any
    # other poset, even one of the same order, must match unshared scans
    fs = list(scenarios.godel_suite(12))
    posets = [p for n in range(1, 5) for p in enumerate_posets(n)]
    alone = [_scans_on(p, fs, share=False) for p in posets]
    _clear_caches()
    for i, (p, want) in enumerate(zip(posets, alone)):
        with shared_node_values(p):
            assert _scans_on(p, fs, share=False) == want  # in p's own block
            tables = semantics._block[1]
            held = {key: len(values) for key, values in tables.items()}
            assert held
            for values in tables.values():
                assert all(len(v) == p.n for v in values.values())
            # p first again, then the posets before it and a copy of p
            others = [*posets[i::-1], Poset(p.elements, p.up)]
            for q, other in zip(others, [*alone[i::-1], want]):
                assert _scans_on(q, fs, share=False) == other
            assert {key: len(values) for key, values in tables.items()} == held
        assert _no_tables_left()


def test_memo_keeps_the_modes_apart():
    # -> reads differently in the two modes, so a scan of one domain in one
    # mode must not read the node values a scan in the other mode left
    plan = scan_plan(parse("p0 | ~p0"))
    for modes in ((False, True), (True, False)):
        with shared_node_values(CH2):
            got = [scan_validity(CH2, plan, range(4), None, modal)[0] for modal in modes]
        assert got == ["valid" if modal else "refuted" for modal in modes]


def test_memo_and_node_table_stay_within_bounds():
    # the node values go with the block, however it ends: normally, by an
    # early return or by a budget trip inside it
    fs = list(scenarios.godel_suite(40))
    p = enumerate_posets(4)[7]
    want = _scans_on(p, fs, share=False)
    _clear_caches()
    assert _scans_on(p, fs) == want
    assert _no_tables_left()

    def first_refuted():
        with shared_node_values(p):
            for f in fs:
                if not is_valid(p, f):
                    assert semantics._block[0] is p and semantics._block[1]
                    return f
        return None

    assert first_refuted() is not None
    assert _no_tables_left()
    meter = WorkMeter(sum(work for _, work in want) // 2)
    with pytest.raises(BudgetExceeded):
        with shared_node_values(p):
            for f in fs:
                is_valid(p, f, meter=meter)
                is_valid_modal(p, godel_translate(f), meter=meter)
    assert _no_tables_left()
    for f in fs:
        for g in (f, godel_translate(f)):
            _check_plan(scan_plan(g))  # each node names one structure


def test_godel_suite_is_a_prefix_of_the_longest():
    # a count below the three pinned formulas truncates them too
    longest = scenarios.godel_suite(200)
    assert len(set(longest)) == 200
    for k in range(6):
        assert scenarios.godel_suite(k) == longest[:k]


def test_godel_transfer_budget_trip_points():
    # measured before node values were shared; each scan still charges its
    # own rows in suite order, warm or cold
    params = {"size": 4, "formulas": 60}
    pins = {1000: (1, 1206), 50000: (10, 51837), 150000: (19, 151020)}
    for clear in (True, False):
        for budget, counts in pins.items():
            if clear:
                _clear_caches()
            r = run_scenario("godel-transfer", params, budget=budget)
            assert (r.status, r.instances_checked, r.work_units) == ("budget",) + counts
