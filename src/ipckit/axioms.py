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
from .catalog import ladder_top_segment
from .errors import BudgetExceeded
from .formulas import BOT, Formula, Imp, Var, conj, disj
from .morphisms import image_of_subposet, image_of_upset
from .poset import Poset, _bits, canonical_code, root


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
    r = x.root_index
    if r is None:
        raise ValueError("splitting frames must be rooted")
    n = x.n
    if n > 16:
        raise BudgetExceeded("too many variables for a splitting formula")
    masks = x.upsets
    down = x.down_masks()

    def q(mask):
        return conj(Var(w) for w in range(n) if not mask >> w & 1)

    axioms = []
    # the empty image is impossible
    axioms.append(Imp(q(0), BOT))
    # non-principal images decompose through their minimal points
    for mask in masks:
        if mask == 0:
            continue
        mins = [w for w in _bits(mask) if down[w] & mask == 1 << w]
        if len(mins) <= 1:
            continue
        axioms.append(Imp(q(mask), disj(q(x.up[m]) for m in mins)))
    # realization: if the image can still drop to v, some point above
    # realizes exactly v
    for v in range(n):
        if v == r:
            continue
        upv = x.up[v]
        body = Imp(q(upv), q(upv & ~(1 << v)))
        axioms.append(Imp(body, conj(Var(w) for w in _bits(down[v]))))
    return Imp(conj(axioms), Var(r))


# -- KG structure ----------------------------------------------------------


def _block_masks(p: Poset):
    """The blocks of sum_blocks as masks of p's points, top block first.

    A cut is a partition into an upper part A and lower part B with
    every element of B strictly below every element of A; blocks are the
    intervals between consecutive cuts.  A point of A has its up-set
    inside A, so at most |A| points in it, and a point of B has A and
    itself in its up-set, so more.  So with the points sorted by up-set
    size, every A is a prefix.  A prefix P of m points is a cut exactly
    when it lies inside up(z) for the next point z.  Else let w be the
    first point after z not below all of P.  up(w) has at least
    |up(z)| > m points, at most m - 1 of them in P, so it holds a point
    y > w outside P.  up(y) is smaller than up(w), so y comes after P and
    before w, and up(w) holds up(y), which holds P: a contradiction.
    """
    order = sorted(range(p.n), key=lambda i: p.up[i].bit_count())
    nxt = [p.up[i] for i in order[1:]] + [p.full_mask]
    masks = []
    upper = prev = 0
    for i, u in zip(order, nxt):
        upper |= 1 << i
        if upper & ~u == 0:
            masks.append(upper & ~prev)
            prev = upper
    return masks


def sum_blocks(p: Poset):
    """Finest ordinal-sum decomposition, top block first: the blocks of
    _block_masks, restricted."""
    return [p.restrict(b) for b in _block_masks(p)]


def decompose_kg(x: Poset):
    """Factor x as a stack of finite ladder upsets over a final point.

    Returns the factor list (finest decomposition, top first, the final
    point omitted), or None when x is not of that shape.  A factor of
    b.n points must be the ladder's top segment T(b.n - 1), which has
    b.n points; the one point is T(0).

    The blocks are first compared with T on masks, by the sorted sizes of
    their points' up-sets inside the block, and only a host whose blocks
    all pass has them restricted and coded.  The answer is unchanged: an
    isomorphism of a block onto T maps each point's up-set onto its
    image's, so isomorphic posets have one multiset of up-set sizes.  A
    block that fails the sizes fails the codes, and the codes still
    decide the blocks that pass.
    """
    if root(x) is None:
        raise ValueError("decompose_kg expects a rooted poset")
    # the root lies below every other point, so the points above it form
    # a cut and the last block is the root alone
    masks = _block_masks(x)[:-1]
    for b in masks:
        # the up-set sizes of x.restrict(b), against those of T
        sizes = sorted((x.up[i] & b).bit_count() for i in _bits(b))
        seg = ladder_top_segment(len(sizes) - 1)
        if sizes != sorted(u.bit_count() for u in seg.up):
            return None
    factors = [x.restrict(b) for b in masks]
    for b in factors:
        if canonical_code(b) != canonical_code(ladder_top_segment(b.n - 1)):
            return None
    return factors
