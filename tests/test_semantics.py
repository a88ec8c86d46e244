"""Satisfaction and validity on frames and algebras."""

from __future__ import annotations

import random

import pytest

from ipckit.budget import WorkMeter
from ipckit.errors import BudgetExceeded, VariableUnassigned
from ipckit.formulas import BOT, bw, godel_translate, grz_axiom, parse
from ipckit.heyting import upset_algebra
from ipckit.morphisms import image_of_subposet
from ipckit.poset import build_poset, enumerate_posets, enumerate_rooted, is_upset, upset_masks, width
from ipckit.semantics import eval_at, is_valid, is_valid_algebra, is_valid_modal, truth_set
from helpers import random_formula as _random_formula

ONE = build_poset(["o"], [])
CH2 = build_poset(["a", "b"], [("a", "b")])
F3 = build_poset(["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("r", "c")])


def test_eval_at_examples():
    v = {0: {"b"}}
    assert not eval_at(CH2, v, "a", parse("p0"))
    assert eval_at(CH2, v, "b", parse("p0"))
    assert not eval_at(CH2, v, "a", parse("~p0"))
    assert not eval_at(CH2, v, "a", BOT)
    assert not eval_at(CH2, v, "b", BOT)


def test_eval_rejects_non_upsets_and_missing_vars():
    with pytest.raises(ValueError):
        eval_at(CH2, {0: {"a"}}, "a", parse("p0"))
    with pytest.raises(VariableUnassigned):
        eval_at(CH2, {}, "a", parse("p0"))


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
        ups = upset_masks(p, cap=p.n)
        f = _random_formula(rng, rng.randrange(0, 5))
        val = {v: rng.choice(ups) for v in range(3)}
        ts = truth_set(p, val, f)
        assert is_upset(p, ts)


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
    from ipckit.formulas import parse
    from ipckit.poset import build_poset
    from ipckit.semantics import is_valid, is_valid_algebra

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
