"""Formula ASTs for the intuitionistic and modal languages.

Surface syntax (ASCII, with unicode aliases accepted): the binary
operators "->", "|" and "&", each binding tighter than the one before,
"->" grouping to the right and the others to the left, over

    unary := "~" unary | "[]" unary | "bot" | ident | "(" formula ")"

~f abbreviates f -> bot in both directions: the parser expands it and the
printer contracts it back.
"""

from __future__ import annotations

from functools import reduce
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
    return reduce(And, parts)


def disj(parts):
    """Left-folded disjunction; empty input is bot."""
    parts = list(parts)
    return reduce(Or, parts) if parts else BOT


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

# one-character tokens, each unicode alias read as its ASCII token
_CHARS = {"→": "->", "∨": "|", "∧": "&", "¬": "~", "⊥": "bot", "□": "[]",
          **{c: c for c in "|&~()"}}

# binary operator: (precedence, node); -> groups to the right, | and & to
# the left
_BINARY = {"->": (0, Imp), "|": (1, Or), "&": (2, And)}


def _tokenize(text):
    """(token, position) pairs, a unicode alias read as its ASCII token at
    its own position in text."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith(("->", "[]"), i):
            tokens.append((text[i:i + 2], i))
            i += 2
        elif c in _CHARS:
            tokens.append((_CHARS[c], i))
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
    """The formula text spells, read by precedence climbing over _BINARY;
    an error's position indexes text."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, len(text))

    def binary(least):
        nonlocal pos
        out = unary()
        while (op := peek()[0]) in _BINARY and _BINARY[op][0] >= least:
            prec, node = _BINARY[op]
            pos += 1
            out = node(out, binary(prec if node is Imp else prec + 1))
        return out

    def unary():
        nonlocal pos
        tok, at = peek()
        pos += 1
        if tok == "~":
            return neg(unary())
        if tok == "[]":
            return Box(unary())
        if tok == "(":
            out = binary(0)
            if peek()[0] != ")":
                raise FormulaSyntaxError("expected ')'", peek()[1])
            pos += 1
            return out
        if tok == "bot":
            return BOT
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", at)
        if tok == "p" or tok.startswith("p") and tok[1:].isascii() and tok[1:].isdigit():
            return Var(int(tok[1:] or 0))
        raise FormulaSyntaxError(f"unknown identifier {tok!r}", at)

    out = binary(0)
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing input", peek()[1])
    return out


# printing ---------------------------------------------------------------

_UNARY = len(_BINARY)  # binds tighter than every binary operator
_SPELLING = {node: (tok, prec) for tok, (prec, node) in _BINARY.items()}


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
