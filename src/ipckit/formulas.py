"""Formula ASTs for the intuitionistic and modal languages.

Surface syntax (ASCII, with unicode aliases accepted):

    formula := imp
    imp     := or ("->" imp)?
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | "[]" unary | atom
    atom    := "bot" | ident | "(" formula ")"

~f abbreviates f -> bot in both directions: the parser expands it and the
printer contracts it back.
"""

from __future__ import annotations

from weakref import WeakValueDictionary

from .errors import FormulaSyntaxError, NotIntuitionistic

_interned = WeakValueDictionary()  # (class, *fields) -> the live node


class Formula:
    """An immutable formula node, hash-consed: building a node equal to a
    live one returns that one, so equal formulas are one object, and
    equality and hashing are identity's, O(1).  A node's fields are its
    class's __slots__; a pickled node is rebuilt through the constructor,
    so it is interned again in the process that loads it."""

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes fields {cls.__slots__}")
        key = (cls, *fields)
        node = _interned.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__slots__, fields):
                object.__setattr__(node, name, value)
            _interned[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __str__(self):
        return pretty(self)


class Var(Formula):
    __slots__ = ("index",)


class Bot(Formula):
    __slots__ = ()


class And(Formula):
    __slots__ = ("left", "right")


class Or(Formula):
    __slots__ = ("left", "right")


class Imp(Formula):
    __slots__ = ("left", "right")


class Box(Formula):
    __slots__ = ("inner",)


BOT = Bot()


def neg(f):
    return Imp(f, BOT)


def conj(parts):
    """Left-folded conjunction; empty input is not allowed."""
    parts = list(parts)
    if not parts:
        raise ValueError("empty conjunction")
    out = parts[0]
    for f in parts[1:]:
        out = And(out, f)
    return out


def disj(parts):
    """Left-folded disjunction; empty input is bot."""
    parts = list(parts)
    if not parts:
        return BOT
    out = parts[0]
    for f in parts[1:]:
        out = Or(out, f)
    return out


def variables(f):
    """Set of variable indices occurring in f."""
    if isinstance(f, Var):
        return {f.index}
    if isinstance(f, Bot):
        return set()
    if isinstance(f, Box):
        return variables(f.inner)
    return variables(f.left) | variables(f.right)


# parsing ----------------------------------------------------------------

_ALIASES = {
    "→": "->",   # arrow
    "∨": "|",
    "∧": "&",
    "¬": "~",
    "⊥": "bot",
    "□": "[]",
}


def _tokenize(text):
    for uni, ascii_ in _ALIASES.items():
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
    return tokens


def parse(text):
    tokens = _tokenize(text)
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


# printing ---------------------------------------------------------------

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 0, 1, 2, 3


def pretty(f):
    return _fmt(f, 0)


def _fmt(f, ctx):
    if isinstance(f, Var):
        return f"p{f.index}"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Box):
        return "[]" + _fmt(f.inner, _PREC_UNARY)
    if isinstance(f, Imp):
        if isinstance(f.right, Bot):
            return "~" + _fmt(f.left, _PREC_UNARY)
        s = _fmt(f.left, _PREC_OR) + " -> " + _fmt(f.right, _PREC_IMP)
        return f"({s})" if ctx > _PREC_IMP else s
    if isinstance(f, Or):
        s = _fmt(f.left, _PREC_OR) + " | " + _fmt(f.right, _PREC_AND)
        return f"({s})" if ctx > _PREC_OR else s
    if isinstance(f, And):
        s = _fmt(f.left, _PREC_AND) + " & " + _fmt(f.right, _PREC_UNARY)
        return f"({s})" if ctx > _PREC_AND else s
    raise TypeError(f"not a formula: {f!r}")


# named formulas ----------------------------------------------------------


def bw(n):
    """Bounded-width axiom: the disjunction over i of p_i -> (p_j, j != i)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return disj(
        Imp(Var(i), disj(Var(j) for j in range(n + 1) if j != i))
        for i in range(n + 1)
    )


def kc_axiom():
    """~p0 | ~~p0, the weak excluded middle."""
    return Or(neg(Var(0)), neg(neg(Var(0))))


def grz_axiom():
    """box(box(p0 -> box p0) -> p0) -> box p0."""
    p = Var(0)
    return Imp(Box(Imp(Box(Imp(p, Box(p))), p)), Box(p))


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
