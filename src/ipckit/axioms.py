"""Splitting (Jankov) and subframe axioms, and the KG sum decomposition.

Validity of both axiom kinds is decided semantically: a host refutes the
splitting formula of a rooted frame exactly when that frame is a
p-morphic image of an upset of the host, and refutes the subframe
formula exactly when it is an image of an arbitrary subposet.  The
syntactic splitting formula is also constructed (one variable per point)
and agrees with the semantic criterion; the agreement is exhaustively
tested rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache

from .budget import WorkMeter
from .errors import BudgetExceeded
from .formulas import BOT, Formula, Imp, Var, conj, disj
from .morphisms import image_of_subposet, image_of_upset
from .poset import Poset, _bits, canonical_code, root, upset_masks


def validates_jankov(host: Poset, x: Poset, meter: WorkMeter | None = None) -> bool:
    """Host validates the splitting formula of rooted x (no upset of host
    maps p-morphically onto x)."""
    if root(x) is None:
        raise ValueError("splitting frames must be rooted")
    return not image_of_upset(x, host, meter=meter)


def validates_subframe(host: Poset, x: Poset, meter: WorkMeter | None = None) -> bool:
    """Host validates the subframe formula of rooted x (no subposet of
    host maps p-morphically onto x)."""
    if root(x) is None:
        raise ValueError("subframe targets must be rooted")
    return not image_of_subposet(x, host, meter=meter)


@lru_cache(maxsize=None)
def jankov_syntactic(x: Poset) -> Formula:
    """Splitting formula with one variable per point of x.

    Variable p_w is read as "the image lies outside the down-set of w";
    for an upset U of x the term q_U (conjunction of p_w over w outside
    U) then says "the image lies in U".  The axioms force, at any point
    satisfying them, the family of true q_U to be a principal prime
    filter, and force every v above the current image to be realized
    higher up.  Refuting the conclusion q at the root therefore yields a
    p-morphism onto x, and conversely.

    cache bound: one formula per target poset, and the targets are the
    rooted posets up to the largest target size asked for.
    """
    r_name = root(x)
    if r_name is None:
        raise ValueError("splitting frames must be rooted")
    n = x.n
    if n > 16:
        raise BudgetExceeded("too many variables for a splitting formula")
    r = x.index(r_name)
    masks = upset_masks(x)
    full = x.full_mask

    def q(mask):
        outside = [Var(w) for w in range(n) if not mask >> w & 1]
        return conj(outside) if outside else None  # None encodes "top"

    axioms = []
    # the empty image is impossible
    axioms.append(Imp(q(0), BOT))
    # non-principal images decompose through their minimal points
    for mask in masks:
        if mask == 0:
            continue
        mins = [w for w in _bits(mask)
                if not any(x.leq_idx(u, w) for u in _bits(mask) if u != w)]
        if len(mins) <= 1:
            continue
        axioms.append(Imp(q(mask), disj(q(x.up[m]) for m in mins)))
    # realization: if the image can still drop to v, some point above
    # realizes exactly v
    for v in range(n):
        if v == r:
            continue
        upv = x.up[v]
        body = Imp(q(upv), q(upv & ~(1 << v)) if upv != 1 << v else q(0))
        down_v = [w for w in range(n) if x.leq_idx(w, v)]
        axioms.append(Imp(body, conj(Var(w) for w in down_v)))
    return Imp(conj(axioms), Var(r))


# -- KG structure ----------------------------------------------------------


def sum_blocks(p: Poset):
    """Finest ordinal-sum decomposition, top block first.

    A cut is a partition into an upper part A and lower part B with
    every element of B strictly below every element of A; blocks are the
    intervals between consecutive cuts.
    """
    n = p.n
    if n == 0:
        return []
    above = [p.strict_up(i).bit_count() for i in range(n)]
    cuts = []
    for m in range(1, n):
        upper = [i for i in range(n) if above[i] < m]
        if len(upper) != m:
            continue
        upper_mask = 0
        for i in upper:
            upper_mask |= 1 << i
        if all(p.up[b] & upper_mask == upper_mask
               for b in range(n) if not upper_mask >> b & 1):
            cuts.append(upper_mask)
    # each cut's upper part has m points, so the cuts come smallest first
    blocks = []
    prev = 0
    for mask in cuts + [p.full_mask]:
        blocks.append(p.restrict(mask & ~prev))
        prev = mask
    return blocks


@lru_cache(maxsize=None)
def _ladder_block_codes(max_size):
    """Canonical codes of the indecomposable finite ladder upsets: the
    point and the top segments of each size (cache bound: one set per
    max_size, which is one more than a decomposed poset's size)."""
    from .catalog import ladder_top_segment, one_point

    codes = {canonical_code(one_point())}
    for m in range(1, max_size):
        codes.add(canonical_code(ladder_top_segment(m)))
    return codes


def decompose_kg(x: Poset):
    """Factor x as a stack of finite ladder upsets over a final point.

    Returns the factor list (finest decomposition, top first, the final
    point omitted), or None when x is not of that shape.
    """
    if root(x) is None:
        raise ValueError("decompose_kg expects a rooted poset")
    blocks = sum_blocks(x)
    if blocks[-1].n != 1:
        return None
    factors = blocks[:-1]
    good = _ladder_block_codes(x.n + 1)
    for b in factors:
        if canonical_code(b) not in good:
            return None
    return factors
