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


def subformulas(f):
    """The distinct subformulas of f, children first (left before right)
    and f last, walked on a stack where None marks the node below as expanded."""
    seen = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if g is None:
            seen[stack.pop()] = None
        elif g not in seen:
            kind = type(g)
            if kind is Var or kind is Bot:
                seen[g] = None
            elif kind is Box:
                stack += (g, None, g.inner)
            else:
                stack += (g, None, g.right, g.left)
    return list(seen)


def variables(f):
    """Set of variable indices occurring in f."""
    return {g.index for g in subformulas(f) if type(g) is Var}


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
    """The formula text spells, read by operator precedence over _BINARY:
    operands wait on one stack and operators on another, prefix operators
    and "(" among them; an error's position indexes text."""
    tokens = _tokenize(text) + [(None, len(text))]
    args, ops = [], []
    pos = 0
    while True:
        tok, at = tokens[pos]
        pos += 1
        if tok in ("~", "[]", "("):
            ops.append(tok)
            continue
        if tok == "bot":
            args.append(BOT)
        elif tok is None:
            raise FormulaSyntaxError("unexpected end of input", at)
        elif tok == "p" or tok.startswith("p") and tok[1:].isascii() and tok[1:].isdigit():
            args.append(Var(int(tok[1:] or 0)))
        else:
            raise FormulaSyntaxError(f"unknown identifier {tok!r}", at)
        # an operand ends: apply the prefix operators, then the binary ones
        # that bind at least as tightly as the next (more, if it is ->)
        while True:
            while ops and ops[-1] in ("~", "[]"):
                arg = args.pop()
                args.append(neg(arg) if ops.pop() == "~" else Box(arg))
            tok, at = tokens[pos]
            prec, node = _BINARY.get(tok, (-1, None))
            while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][0] >= prec + (node is Imp):
                right = args.pop()
                args.append(_BINARY[ops.pop()][1](args.pop(), right))
            pos += 1
            if node is not None:
                ops.append(tok)
                break
            if tok is None and not ops:
                return args[0]
            if tok != ")" or not ops:
                raise FormulaSyntaxError("expected ')'" if ops else "trailing input", at)
            ops.pop()  # the "(" on top


# printing ---------------------------------------------------------------

_UNARY = len(_BINARY)  # binds tighter than every binary operator
_SPELLING = {node: (tok, prec) for tok, (prec, node) in _BINARY.items()}


def pretty(f):
    """f spelled from pieces popped off one stack: strings, and (g, ctx)
    pairs, g in parentheses if its operator binds less tightly than ctx."""
    out = []
    stack = [(f, 0)]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        g, ctx = piece
        kind = type(g)
        if kind is Var:
            out.append(f"p{g.index}")
        elif kind is Bot:
            out.append("bot")
        elif kind is Box:
            stack += ((g.inner, _UNARY), "[]")
        elif kind is Imp and type(g.right) is Bot:
            stack += ((g.left, _UNARY), "~")
        elif kind not in _SPELLING:
            raise TypeError(f"not a formula: {g!r}")
        else:
            tok, prec = _SPELLING[kind]
            # the side an operator groups to takes its own level, the other one up
            left, right = (prec + 1, prec) if kind is Imp else (prec, prec + 1)
            infix = ((g.right, right), f" {tok} ", (g.left, left))
            stack += (")", *infix, "(") if ctx > prec else infix
    return "".join(out)


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
    """Modal companion translation: variables and implications get boxed;
    a modal f is refused, naming its leftmost box with no box inside."""
    out = {}
    for g in subformulas(f):
        kind = type(g)
        if kind is Box:
            raise NotIntuitionistic(f"contains a modal operator: {g}")
        t = g if kind is Var or kind is Bot else kind(out[g.left], out[g.right])
        out[g] = Box(t) if kind is Var or kind is Imp else t
    return out[f]
