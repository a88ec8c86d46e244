"""Test oracle for ipckit.formulas.parse: the recursive-descent parser
with one function per precedence level, as it was before the one
precedence table.

The tokenizer rewrites each unicode alias to its ASCII token padded with
spaces before it reads the text, so an error position indexes the
rewritten text: it equals the input position only on ASCII input.  The
old parser gave the input's length at the end of the input; here the end
is the rewritten text's length too, so every position is in the one
coordinate system that input_position maps back to the input.
"""

from __future__ import annotations

from ipckit.errors import FormulaSyntaxError
from ipckit.formulas import BOT, And, Box, Imp, Or, Var, neg

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
