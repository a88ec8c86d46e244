"""Built-in frame families.

Small named frames are stored as cover-pair data; parameterized families
(fans, chains, ladder upsets, simple sums, the wide towers and their
finite stand-ins for infinite spaces) are constructed.  Keys accepted by
catalog_get: K(1..7), G(1..6), P(1..3), F(n), L(k), C(m), BW1(1..2),
BW2(1..11), Z_K(1..4), Z_G(1..3), Y(m), Gn_trunc(n,N), Xm_trunc(m,n,N).
A bare "K3" is shorthand for "K(3)".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterOutOfRange, UnknownKey
from .poset import Poset, build_poset, stack, sum_posets


@dataclass(frozen=True)
class CatalogKey:
    family: str
    params: tuple

    def __str__(self):
        inner = ",".join(str(p) for p in self.params)
        return f"{self.family}({inner})" if self.params else self.family


# -- small named frames (element list, cover pairs) ------------------------
# A key whose frame an earlier key already holds names that key instead.

_NAMED = {
    # root below a three-point antichain
    "P1": (["r", "a", "b", "c"], [("r", "a"), ("r", "b"), ("r", "c")]),
    # two chains of two over the root
    "P2": (["r", "c", "d", "a", "b"],
           [("r", "c"), ("c", "a"), ("r", "d"), ("d", "b")]),
    # a point and a chain of three over the root
    "P3": (["r", "a", "d", "c", "b"],
           [("r", "a"), ("r", "d"), ("d", "c"), ("c", "b")]),
    "K1": "P2",
    "K2": (["r", "u", "v", "a", "w", "b"],
           [("r", "u"), ("r", "v"), ("u", "a"), ("v", "a"),
            ("v", "w"), ("w", "b")]),
    "K3": (["r", "c", "d", "a", "b", "t"],
           [("r", "c"), ("c", "a"), ("r", "d"), ("d", "b"),
            ("a", "t"), ("b", "t")]),
    "K4": (["r", "u", "v", "a", "w", "b", "t"],
           [("r", "u"), ("r", "v"), ("u", "a"), ("v", "a"),
            ("v", "w"), ("w", "b"), ("a", "t"), ("b", "t")]),
    "K5": (["r", "c", "d", "a", "b", "t"],
           [("r", "c"), ("c", "a"), ("r", "d"), ("d", "b"),
            ("c", "t"), ("b", "t")]),
    "K6": (["r", "x", "d", "c", "b", "a", "t"],
           [("r", "x"), ("r", "d"), ("x", "c"), ("x", "b"), ("d", "b"),
            ("c", "a"), ("c", "t"), ("b", "t")]),
    "K7": (["r", "c", "y", "a", "d", "b", "t"],
           [("r", "c"), ("r", "y"), ("c", "a"), ("y", "a"), ("y", "d"),
            ("d", "b"), ("b", "t"), ("c", "t")]),
    "G1": "P3",
    "G2": (["r", "x", "d", "a", "c", "b"],
           [("r", "x"), ("r", "d"), ("x", "a"), ("x", "c"), ("d", "c"),
            ("c", "b")]),
    "G3": (["r", "x", "d", "a", "c", "b", "t"],
           [("r", "x"), ("r", "d"), ("x", "a"), ("x", "c"), ("d", "c"),
            ("c", "b"), ("b", "t"), ("a", "t")]),
    "G4": (["r", "a", "d", "c", "b", "t"],
           [("r", "a"), ("r", "d"), ("d", "c"), ("c", "b"),
            ("b", "t"), ("a", "t")]),
    "G5": (["r", "a", "d", "c", "t", "b"],
           [("r", "a"), ("r", "d"), ("d", "c"), ("c", "t"), ("c", "b"),
            ("a", "t")]),
    "G6": (["r", "x", "d", "c", "a", "t", "b"],
           [("r", "x"), ("r", "d"), ("x", "c"), ("x", "a"), ("d", "c"),
            ("a", "t"), ("c", "t"), ("c", "b")]),
    # the two frames whose splitting formulas pin width one
    "BW1_1": (["r", "a", "b"], [("r", "a"), ("r", "b")]),
    "BW1_2": (["r", "a", "b", "t"],
              [("r", "a"), ("r", "b"), ("a", "t"), ("b", "t")]),
    # the eleven frames whose splitting formulas pin width two
    "BW2_1": (["r", "x", "y", "z"], [("r", "x"), ("r", "y"), ("r", "z")]),
    "BW2_2": (["r", "x", "y", "z", "t"],
              [("r", "x"), ("r", "y"), ("r", "z"), ("x", "t"), ("y", "t")]),
    "BW2_3": (["r", "x", "y", "z", "t"],
              [("r", "x"), ("r", "y"), ("r", "z"), ("x", "t"), ("y", "t"),
               ("z", "t")]),
    "BW2_4": (["r", "m", "x", "y", "z"],
              [("r", "m"), ("m", "x"), ("m", "y"), ("r", "z")]),
    "BW2_5": (["r", "m", "x", "y", "z", "t"],
              [("r", "m"), ("m", "x"), ("m", "y"), ("r", "z"),
               ("x", "t"), ("y", "t")]),
    "BW2_6": (["r", "m", "x", "y", "z", "t"],
              [("r", "m"), ("m", "x"), ("m", "y"), ("r", "z"),
               ("x", "t"), ("z", "t")]),
    "BW2_7": (["r", "m", "x", "y", "z", "t"],
              [("r", "m"), ("m", "x"), ("m", "y"), ("r", "z"),
               ("x", "t"), ("y", "t"), ("z", "t")]),
    "BW2_8": (["r", "m", "n", "x", "y", "z"],
              [("r", "m"), ("r", "n"), ("m", "x"), ("m", "y"),
               ("n", "y"), ("n", "z")]),
    "BW2_9": (["r", "m", "n", "x", "y", "z", "t"],
              [("r", "m"), ("r", "n"), ("m", "x"), ("m", "y"),
               ("n", "y"), ("n", "z"), ("x", "t"), ("y", "t")]),
    "BW2_10": (["r", "m", "n", "x", "y", "z", "t"],
               [("r", "m"), ("r", "n"), ("m", "x"), ("m", "y"),
                ("n", "y"), ("n", "z"), ("x", "t"), ("z", "t")]),
    "BW2_11": (["r", "m", "n", "x", "y", "z", "t"],
               [("r", "m"), ("r", "n"), ("m", "x"), ("m", "y"),
                ("n", "y"), ("n", "z"), ("x", "t"), ("y", "t"), ("z", "t")]),
    # ambient frames from the width-two classification arguments
    "ZK1": (["r", "x", "y", "c", "d", "a", "b"],
            [("r", "x"), ("r", "y"), ("x", "c"), ("y", "d"), ("c", "a"),
             ("d", "b"), ("x", "b"), ("y", "a")]),
    "ZK2": (["r", "x", "y", "c", "d", "a", "b", "t"],
            [("r", "x"), ("r", "y"), ("x", "c"), ("y", "d"), ("c", "a"),
             ("d", "b"), ("x", "b"), ("y", "a"), ("a", "t"), ("b", "t")]),
    "ZK3": (["r", "y", "z", "x", "d", "c", "b", "a", "t"],
            [("r", "y"), ("r", "z"), ("y", "x"), ("y", "b"), ("x", "c"),
             ("x", "t"), ("c", "a"), ("z", "d"), ("z", "a"), ("d", "t")]),
    "ZK4": (["r", "x", "y", "c", "d", "a", "b", "t"],
            [("r", "x"), ("r", "y"), ("x", "c"), ("x", "b"), ("y", "a"),
             ("y", "d"), ("c", "a"), ("c", "t"), ("d", "b"), ("b", "t")]),
    "ZG1": "G2",
    "ZG2": "G3",
    "ZG3": "G6",
}


@lru_cache(maxsize=None)
def _named(key):
    """The named catalog poset key, KeyError for a key outside the fixed
    _NAMED table (cache bound: one poset per key of that table)."""
    entry = _NAMED[key]
    elements, covers = _NAMED[entry] if isinstance(entry, str) else entry
    return build_poset(elements, covers, name=key)


def one_point(name="pt"):
    return build_poset([name], [], name="1")


def two_antichain():
    return build_poset(["a", "b"], [], name="2")


def chain(m):
    """Chain with m points; C(0) is the empty poset."""
    if m < 0:
        raise ParameterOutOfRange("chain length must be >= 0")
    return build_poset(
        [f"c{i}" for i in range(m)],
        [(f"c{i+1}", f"c{i}") for i in range(m - 1)],
        name=f"C({m})",
    )


def fan(k):
    """Root below a k-point antichain."""
    if k < 1:
        raise ParameterOutOfRange("fan needs at least one top")
    return build_poset(
        ["r"] + [f"m{i}" for i in range(k)],
        [("r", f"m{i}") for i in range(k)],
        name=f"F({k})",
    )


# -- the one-generated ladder ----------------------------------------------


@lru_cache(maxsize=None)
def ladder_top_segment(m):
    """Points w0..wm of the one-generated dual frame's ladder, point w_n
    covered by w_{n-2} and w_{n-3}: the non-rooted indecomposable upsets
    (cache bound: one poset per m asked for)."""
    if m < 0:
        raise ParameterOutOfRange("segment size must be >= 0")
    covers = []
    for i in range(2, m + 1):
        covers.append((f"w{i}", f"w{i-2}"))
        if i >= 3:
            covers.append((f"w{i}", f"w{i-3}"))
    return build_poset([f"w{i}" for i in range(m + 1)], covers, name=f"T({m})")


def ladder_upset(k):
    """The principal upset of w_k inside the ladder, read off T(k): every
    point above w_k has a smaller index."""
    if k < 0:
        raise ParameterOutOfRange(f"ladder upset index {k} out of range")
    seg = ladder_top_segment(k)
    return seg.restrict(seg.up[k], name=f"L({k})")


def ladder_trunc(n_points):
    """Top n_points ladder points with one adjoined bottom, omega, standing
    in for the limit point."""
    if n_points < 1:
        raise ParameterOutOfRange("truncation needs at least one point")
    seg = ladder_top_segment(n_points - 1)
    return Poset(seg.elements + ("omega",), seg.up + ((1 << (n_points + 1)) - 1,),
                 name=f"Ltrunc({n_points})")


def simple_space(word):
    """Sum of one-point and two-antichain layers, first entry on top."""
    out = build_poset([], [])
    for k in word:
        if k == 1:
            block = one_point()
        elif k == 2:
            block = two_antichain()
        else:
            raise ParameterOutOfRange("simple-space word entries must be 1 or 2")
        out = sum_posets(out, block)
    return out


def rn_member(word, k=None, m=None):
    """Members of the closure family: top point, a simple part, then
    either a rooted ladder upset (k) or a point over L(4) over a chain (m)."""
    if (k is None) == (m is None):
        raise ParameterOutOfRange("exactly one of k and m must be given")
    top = one_point()
    s = simple_space(word)
    if k is not None:
        tail = ladder_upset(k)
    else:
        tail = sum_posets(sum_posets(one_point(), ladder_upset(4)), chain(m))
    return sum_posets(sum_posets(top, s), tail)


# -- wide towers ------------------------------------------------------------


def y_poset(m):
    """The rigid bottom pattern: three legs of two over a bipartite
    ladder of m levels over three shared atoms, with a maximum d."""
    if m < 1:
        raise ParameterOutOfRange("m must be >= 1")
    els = ["bot", "r1", "r2", "r3"]
    covers = []
    for i in range(1, 4):
        covers.append(("bot", f"r{i}"))
    for i in range(1, m + 1):
        els += [f"p{i}", f"q{i}"]
    for i in range(1, 4):
        covers += [(f"r{i}", f"p{m}"), (f"r{i}", f"q{m}")]
    for i in range(1, m):
        for lo in (f"p{i+1}", f"q{i+1}"):
            for hi in (f"p{i}", f"q{i}"):
                covers.append((lo, hi))
    els += ["em", "fm", "gm", "ep", "fp", "gp", "d"]
    for leg in ("e", "f", "g"):
        covers += [("p1", leg + "m"), ("q1", leg + "m"),
                   (leg + "m", leg + "p"), (leg + "p", "d")]
    return build_poset(els, covers, name=f"Y({m})")


def xm_trunc(m, n, nlevels):
    """Finite stand-in for the width-(n+1) tower over Y(m): the top
    nlevels of the three-column braid over b_omega over d, plus the n-2
    extra maximal points beside b_omega."""
    base = y_poset(m)
    if n < 3:
        raise ParameterOutOfRange("n must be >= 3")
    if nlevels < 1:
        raise ParameterOutOfRange("nlevels must be >= 1")
    els = list(base.elements)
    covers = [(base.elements[i], base.elements[j]) for i, j in base.covers()]
    for t in range(1, n - 1):
        els.append(f"top{t}")
        covers.append(("d", f"top{t}"))
    els.append("bom")
    covers.append(("d", "bom"))
    for i in range(1, nlevels + 1):
        els += [f"a{i}", f"b{i}", f"c{i}"]
    covers += [("bom", f"a{nlevels}"), ("bom", f"b{nlevels}"),
               ("bom", f"c{nlevels}")]
    for i in range(1, nlevels):
        covers += [
            (f"a{i+1}", f"a{i}"), (f"a{i+1}", f"b{i}"),
            (f"b{i+1}", f"a{i}"), (f"b{i+1}", f"c{i}"),
            (f"c{i+1}", f"b{i}"), (f"c{i+1}", f"c{i}"),
        ]
    return build_poset(els, covers, name=f"X({m},{n},{nlevels})")


def gn_trunc(n, nlevels):
    """Finite stand-in for the degree-(n+1) space: a point over a ladder
    truncation over L(4) over a chain of n."""
    if n < 1:
        raise ParameterOutOfRange("n must be >= 1")
    return stack(
        [("t", one_point("top")),
         ("l", ladder_trunc(nlevels)),
         ("f", ladder_upset(4)),
         ("c", chain(n))],
        name=f"G({n},{nlevels})",
    )


# -- key dispatch ------------------------------------------------------------

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*?)\s*(?:\(\s*([0-9,\s]*)\)|([0-9]+))?$")

_FAMILIES = {
    "K": (1, lambda i: _named(f"K{i}")),
    "G": (1, lambda i: _named(f"G{i}")),
    "P": (1, lambda i: _named(f"P{i}")),
    "BW1": (1, lambda i: _named(f"BW1_{i}")),
    "BW2": (1, lambda i: _named(f"BW2_{i}")),
    "Z_K": (1, lambda i: _named(f"ZK{i}")),
    "Z_G": (1, lambda i: _named(f"ZG{i}")),
    "F": (1, fan),
    "L": (1, ladder_upset),
    "C": (1, chain),
    "Y": (1, y_poset),
    "Gn_trunc": (2, gn_trunc),
    "Xm_trunc": (3, xm_trunc),
}


def parse_key(text):
    m = _KEY_RE.match(text.strip())
    if not m:
        raise UnknownKey(text)
    family, arglist, bare = m.groups()
    if bare is not None:
        params = (int(bare),)
    elif arglist is not None:
        parts = [s for s in arglist.split(",") if s.strip()]
        params = tuple(int(s) for s in parts)
    else:
        params = ()
    # normalize shorthand like BW2_7 and ZK1
    if not params and "_" in family:
        head, _, tail = family.rpartition("_")
        if tail.isdigit():
            family, params = head, (int(tail),)
    family = family.rstrip("_")
    if family in ("ZK", "ZG"):
        family = "Z_" + family[1:]
    return CatalogKey(family, params)


def catalog_get(key):
    """Poset for a catalog key (a CatalogKey or its string form); a number
    outside a named family raises ParameterOutOfRange naming the key, as
    K(0), not the table entry it would have read."""
    if isinstance(key, str):
        key = parse_key(key)
    if key.family not in _FAMILIES:
        raise UnknownKey(key.family)
    arity, fn = _FAMILIES[key.family]
    if len(key.params) != arity:
        raise UnknownKey(f"{key.family} takes {arity} parameter(s)")
    try:
        return fn(*key.params)
    except KeyError:
        raise ParameterOutOfRange(str(key)) from None


def catalog_keys():
    """All fixed-size keys plus representative parameterized examples."""
    return [str(parse_key(k)) for k in _NAMED] + [
        "F(n)", "L(k)", "C(m)", "Y(m)", "Gn_trunc(n,N)", "Xm_trunc(m,n,N)"]
