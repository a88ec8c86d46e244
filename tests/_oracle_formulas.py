"""Test oracles for ipckit.formulas and the scan compiler: the recursive
walks that the one iterative walk (formulas.subformulas) and the stack
machines of parse and pretty replaced.

parse is the recursive-descent parser with one function per precedence
level, as it was before the one precedence table.

The tokenizer rewrites each unicode alias to its ASCII token padded with
spaces before it reads the text, so an error position indexes the
rewritten text: it equals the input position only on ASCII input.  The
old parser gave the input's length at the end of the input; here the end
is the rewritten text's length too, so every position is in the one
coordinate system that input_position maps back to the input.
"""

from __future__ import annotations

from ipckit.errors import FormulaSyntaxError, NotIntuitionistic
from ipckit.formulas import _SPELLING, _UNARY, BOT, And, Bot, Box, Imp, Or, Var, neg

ALIASES = {
    "→": "->",   # arrow
    "∨": "|",
    "∧": "&",
    "¬": "~",
    "⊥": "bot",
    "□": "[]",
}


def _tokenize(text):
    for uni, ascii_ in ALIASES.items():
        text = text.replace(uni, f" {ascii_} ")
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", i))
            i += 2
        elif text.startswith("[]", i):
            tokens.append(("[]", i))
            i += 2
        elif c in "|&~()":
            tokens.append((c, i))
            i += 1
        elif c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    return tokens, text


def parse(text):
    tokens, text = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def where():
        return tokens[pos][1] if pos < len(tokens) else len(text)

    def take(tok):
        nonlocal pos
        if peek() != tok:
            raise FormulaSyntaxError(f"expected {tok!r}", where())
        pos += 1

    def p_imp():
        left = p_or()
        if peek() == "->":
            take("->")
            return Imp(left, p_imp())
        return left

    def p_or():
        out = p_and()
        while peek() == "|":
            take("|")
            out = Or(out, p_and())
        return out

    def p_and():
        out = p_unary()
        while peek() == "&":
            take("&")
            out = And(out, p_unary())
        return out

    def p_unary():
        if peek() == "~":
            take("~")
            return neg(p_unary())
        if peek() == "[]":
            take("[]")
            return Box(p_unary())
        return p_atom()

    def p_atom():
        tok = peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", where())
        if tok == "(":
            take("(")
            out = p_imp()
            take(")")
            return out
        if tok == "bot":
            take("bot")
            return BOT
        if tok == "p":
            take("p")
            return Var(0)
        if tok.startswith("p") and tok[1:].isascii() and tok[1:].isdigit():
            take(tok)
            return Var(int(tok[1:]))
        raise FormulaSyntaxError(f"unknown identifier {tok!r}", where())

    out = p_imp()
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing input", where())
    return out


def input_position(text, pos):
    """The index in text of the character that the rewritten text's
    position pos reads: an alias's token starts one space after its
    padding begins, and the end of the rewritten text is len(text)."""
    at = 0
    for i, c in enumerate(text):
        start = at + 1 if c in ALIASES else at
        if pos == start:
            return i
        at += len(ALIASES[c]) + 2 if c in ALIASES else 1
    assert pos == at, (text, pos)
    return len(text)


def variables(f):
    """Set of variable indices occurring in f."""
    if isinstance(f, Var):
        return {f.index}
    if isinstance(f, Bot):
        return set()
    if isinstance(f, Box):
        return variables(f.inner)
    return variables(f.left) | variables(f.right)


def pretty(f):
    return _fmt(f, 0)


def _fmt(f, ctx):
    """f spelled where an operator must bind at least as tightly as ctx,
    in parentheses if its own binds less tightly."""
    if isinstance(f, Var):
        return f"p{f.index}"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Box):
        return "[]" + _fmt(f.inner, _UNARY)
    if isinstance(f, Imp) and isinstance(f.right, Bot):
        return "~" + _fmt(f.left, _UNARY)
    if type(f) not in _SPELLING:
        raise TypeError(f"not a formula: {f!r}")
    tok, prec = _SPELLING[type(f)]
    # the side an operator groups to takes its own level, the other one up
    left, right = (prec + 1, prec) if type(f) is Imp else (prec, prec + 1)
    s = f"{_fmt(f.left, left)} {tok} {_fmt(f.right, right)}"
    return f"({s})" if ctx > prec else s


def godel_translate(f):
    """Modal companion translation: variables and implications get boxed."""
    if isinstance(f, Var):
        return Box(f)
    if isinstance(f, Bot):
        return BOT
    if isinstance(f, And):
        return And(godel_translate(f.left), godel_translate(f.right))
    if isinstance(f, Or):
        return Or(godel_translate(f.left), godel_translate(f.right))
    if isinstance(f, Imp):
        return Box(Imp(godel_translate(f.left), godel_translate(f.right)))
    raise NotIntuitionistic(f"contains a modal operator: {f}")


def compile_formula(f, slot_of):
    """The distinct subformulas of f, children first and f last, each with
    every variable renamed to its slot (slot_of maps variable index to
    slot): Var(slot), BOT, Box(child) or And/Or/Imp(left, right) over the
    renamed children.

    Formulas are interned, so equal subformulas of two formulas with the
    same slots are one node object.  Renaming is injective, so distinct
    subformulas of f give distinct nodes.
    """
    renamed = {}

    def walk(g):
        node = renamed.get(g)
        if node is None:
            kind = type(g)
            if kind is Var:
                node = Var(slot_of[g.index])
            elif kind is Bot:
                node = g
            elif kind is Box:
                node = Box(walk(g.inner))
            else:
                node = kind(walk(g.left), walk(g.right))
            renamed[g] = node
        return node

    walk(f)
    return tuple(renamed.values())
