"""Formula syntax: parser, printer, bw family, translation, grz."""

from __future__ import annotations

import gc
import os
import pickle
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from helpers import random_formula as _random_formula
import _oracle_formulas as oracle

from ipckit import formulas
from ipckit.errors import FormulaSyntaxError, NotIntuitionistic
from ipckit.formulas import (
    BOT,
    And,
    Bot,
    Box,
    Imp,
    Or,
    Var,
    bw,
    godel_translate,
    grz_axiom,
    kc_axiom,
    parse,
    pretty,
    variables,
)


def test_parse_examples():
    f = parse("p0 -> (p1 | p2)")
    assert f == Imp(Var(0), Or(Var(1), Var(2)))
    assert parse("~p | ~~p") == kc_axiom()
    assert parse("[](p -> []p)") == Box(Imp(Var(0), Box(Var(0))))


def test_parse_unicode_aliases():
    assert parse("p0 → p1 ∨ ¬p2") == parse("p0 -> p1 | ~p2")
    assert parse("⊥") == BOT
    assert parse("□p0") == Box(Var(0))


def test_parse_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p0 -> ")
    assert err.value.position == 6
    with pytest.raises(FormulaSyntaxError):
        parse("q7")
    with pytest.raises(FormulaSyntaxError):
        parse("(p0 | p1")
    for text in ("p\u00b2", "p\u0663"):  # superscript two, Arabic-Indic three
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.position == 0


def test_alias_errors_point_into_the_input():
    # an alias is read at its own position, not at one in a rewritten text
    with pytest.raises(FormulaSyntaxError) as err:
        parse("p0 ∧ )")
    assert err.value.position == 5
    with pytest.raises(FormulaSyntaxError) as err:
        parse("□□p0 & ?")
    assert err.value.position == 7


_FRAGMENTS = ("p0", "p1", "p", "p12", "bot", "q", "x_1", "p\u00b2", "->", "|", "&",
              "~", "[]", "(", ")", "-", "[", "]", "?", ">", " ")
_ASCII_TOKENS = {ascii_: uni for uni, ascii_ in oracle.ALIASES.items()}


def _parser_inputs(rng, trees, count, aliases):
    """count texts: half the printed trees, some with one fragment cut or
    put in, and half random fragment strings; with aliases set, each ASCII
    token an alias spells is replaced by it at random."""
    fragments = _FRAGMENTS + (tuple(oracle.ALIASES) if aliases else ())
    printed = [pretty(f).split(" ") for f in trees]
    for i in range(count):
        if i % 2:
            pieces = [rng.choice(fragments) for _ in range(rng.randrange(12))]
        else:
            pieces = list(rng.choice(printed))
            edit = rng.randrange(3)
            if edit:
                at = rng.randrange(len(pieces))
                pieces[at:at + (edit == 1)] = [rng.choice(fragments)] if edit == 2 else []
        text = " ".join(pieces)
        if aliases:
            for ascii_, uni in _ASCII_TOKENS.items():
                parts = text.split(ascii_)
                text = parts[0] + "".join(
                    rng.choice((ascii_, uni)) + part for part in parts[1:])
        yield text


def _outcome(parser, text, position=lambda at: at):
    """The tree parser gives, or its error's type, message and position."""
    try:
        return parser(text)
    except FormulaSyntaxError as err:
        return type(err), str(err).rsplit(" (at position ", 1)[0], position(err.position)


def test_parser_matches_the_recursive_descent_oracle():
    # derandomised: ASCII input gives the oracle's tree or error, position
    # included; alias input gives the same with the position mapped from
    # the oracle's rewritten text to the input character it reads
    rng = random.Random(0x9A95E)
    # live trees, so parsing them mostly finds their nodes interned
    trees = [_random_formula(rng, rng.randrange(5), modal=True) for _ in range(2000)]
    for text in _parser_inputs(rng, trees, 50_000, aliases=False):
        assert _outcome(parse, text) == _outcome(oracle.parse, text), text
    unicode = 0
    for text in _parser_inputs(rng, trees, 50_000, aliases=True):
        want = _outcome(oracle.parse, text, lambda at: oracle.input_position(text, at))
        assert _outcome(parse, text) == want, text
        unicode += not text.isascii()
    assert unicode > 30_000


def test_deeply_parenthesised_formulas_parse():
    depth = 200
    assert parse("(" * depth + "p0" + ")" * depth) is Var(0)


def test_precedence():
    # -> binds loosest and associates right; box and ~ bind tightest
    assert parse("p0 -> p1 -> p2") == Imp(Var(0), Imp(Var(1), Var(2)))
    assert parse("p0 & p1 | p2") == Or(And(Var(0), Var(1)), Var(2))
    assert parse("~p0 & p1") == And(Imp(Var(0), BOT), Var(1))
    assert parse("[]p0 -> p1") == Imp(Box(Var(0)), Var(1))


def test_bw_family():
    assert bw(1) == Or(Imp(Var(0), Var(1)), Imp(Var(1), Var(0)))
    assert bw(0) == Imp(Var(0), BOT)
    b2 = bw(2)
    assert variables(b2) == {0, 1, 2}
    assert pretty(b2).count("->") == 3
    assert variables(bw(3)) == {0, 1, 2, 3}


def test_grz_axiom_shape():
    g = grz_axiom()
    assert isinstance(g, Imp)
    assert box_count(g.left) == 3
    assert box_count(g.right) == 1
    assert pretty(g) == "[]([](p0 -> []p0) -> p0) -> []p0"


def test_godel_translate_examples():
    assert godel_translate(Var(0)) == Box(Var(0))
    assert godel_translate(BOT) == BOT
    assert godel_translate(parse("p0 -> p1")) == parse("[]([]p0 -> []p1)")
    with pytest.raises(NotIntuitionistic):
        godel_translate(Box(Var(0)))


def _count_var_occurrences(f):
    if isinstance(f, Var):
        return 1
    if f == BOT:
        return 0
    if isinstance(f, Box):
        return _count_var_occurrences(f.inner)
    return _count_var_occurrences(f.left) + _count_var_occurrences(f.right)


def _count_imps(f):
    if isinstance(f, (Var,)) or f == BOT:
        return 0
    if isinstance(f, Box):
        return _count_imps(f.inner)
    me = 1 if isinstance(f, Imp) else 0
    return me + _count_imps(f.left) + _count_imps(f.right)


def subformula_count(f):
    if isinstance(f, (Var, Bot)):
        return 1
    if isinstance(f, Box):
        return 1 + subformula_count(f.inner)
    return 1 + subformula_count(f.left) + subformula_count(f.right)


def box_count(f):
    if isinstance(f, (Var, Bot)):
        return 0
    if isinstance(f, Box):
        return 1 + box_count(f.inner)
    return box_count(f.left) + box_count(f.right)


def test_translation_structure_preserving():
    rng = random.Random(5)
    for _ in range(500):
        f = _random_formula(rng, rng.randrange(1, 5))
        t = godel_translate(f)
        extra = _count_var_occurrences(f) + _count_imps(f)
        assert subformula_count(t) == subformula_count(f) + extra
        assert box_count(t) == extra  # a box on each variable and implication


def test_parse_print_roundtrip():
    rng = random.Random(17)
    for _ in range(4000):
        f = _random_formula(rng, rng.randrange(0, 7), modal=True)
        assert parse(pretty(f)) == f


def test_print_parse_normal_form():
    # reprinting a parsed string is stable
    for text in ["p0 -> p1 | p2", "~p0 | ~~p0", "[](p0 -> []p0)",
                 "(p0 -> p1) & bot", "p0 & p1 & p2"]:
        once = pretty(parse(text))
        assert pretty(parse(once)) == once


def test_equal_formulas_are_one_object():
    rng = random.Random(31)
    for _ in range(300):
        f = _random_formula(rng, rng.randrange(0, 6), modal=True)
        assert parse(pretty(f)) is f  # built separately, interned
        assert pickle.loads(pickle.dumps(f)) is f


def test_unpickled_formula_is_interned_in_another_process():
    # identity hashes differ between interpreters: unpickling must rebuild
    # the node through the intern table, whatever the string-hash seed
    f = parse("[](p0 -> p1) | ~(p2 & bot)")
    code = ("import pickle, sys; from ipckit.formulas import parse; "
            "f = pickle.loads(bytes.fromhex(sys.argv[1])); "
            "print(f is parse('[](p0 -> p1) | ~(p2 & bot)'))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code, pickle.dumps(f).hex()],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["True"]


def test_formulas_are_immutable():
    f = parse("p0 -> []p1")
    with pytest.raises(AttributeError):
        f.left = BOT
    with pytest.raises(AttributeError):
        del f.right
    assert f.left is Var(0) and f.right is Box(Var(1))


def test_unreferenced_formulas_leave_the_intern_table():
    f = And(Var(7071), Box(Var(7072)))
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None
    assert (Var, 7071) not in formulas._interned
    assert (Var, 7072) not in formulas._interned
