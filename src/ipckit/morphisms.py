"""P-morphism search, upset/subposet image criteria, and E-partitions.

A total map a between posets is a p-morphism when the image of every
up-set is the up-set of the image.  Assigning sources in order of
decreasing height makes the condition local: once everything strictly
above x is mapped, onto S, the image of x must be a t with up(t) = S
(t already in S) or up(t) = S + {t}.  A target lists these candidates
per S once (Poset.image_candidates), so exhaustive absence proofs stay
cheap.

The walk never gathers S point by point.  For each point i it places it
keeps seen[i], the image of the kept points of up(i), which is up(t)
when i maps to t; S is then the union of seen[c] over the upper covers c
of x (see _search for the proof).  It counts its nodes and charges them
to the work meter once per search; a child that an onto walk would cut
at once is counted at its parent without being entered.

The image criteria use the same walk.  With the skip option a point may
also be left out: S is then the image of the kept points above x, and a
left-out point keeps seen = S, so the condition stays local and one walk
over the host searches all of its subposets at once (subframe axioms),
with no subposet ever built.  A point is left out only when no target
point has up-set S, since mapping it to that point starts the same
subtree (see _search).  Upset images need no skipping, since for a
rooted target the principal upsets suffice (splitting axioms; see
image_of_upset).

E-partitions, the kernels of the p-morphisms onto rooted images, are
tuples of block masks sorted by least point.  They come from a walk in
the same top-down order.  Each point joins a block or opens one; once
everything above x is placed, the blocks meeting up(x) are known, so
condition (a) is checked as x is placed and only E-partitions are ever
built (see epartitions).  quotient checks a given E-partition in one
pass, since condition (a) is the back condition of the projection.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from . import budget as _budget
from .budget import WorkMeter
from .errors import BudgetExceeded, NotAnEPartition
from .poset import Poset, _bits, width


@dataclass(frozen=True)
class PMorphism:
    source: Poset
    target: Poset
    mapping: tuple  # source index -> target index

    def as_dict(self):
        return {
            e: self.target.elements[self.mapping[i]]
            for i, e in enumerate(self.source.elements)
        }

    def is_surjective(self):
        return len(set(self.mapping)) == self.target.n

    def validate(self):
        """Exhaustive check of totality and the back condition
        up(a(x)) == a(up(x)).  Monotonicity follows: for j in up(i), a(j)
        lies in a(up(i)) == up(a(i))."""
        src, dst, m = self.source, self.target, self.mapping
        if len(m) != src.n:
            raise ValueError("mapping is not total")
        if any(not 0 <= t < dst.n for t in m):
            raise ValueError("mapping leaves the target")
        for i in range(src.n):
            img = 0
            for j in _bits(src.up[i]):
                img |= 1 << m[j]
            if img != dst.up[m[i]]:
                raise ValueError(
                    f"back condition fails at {src.elements[i]}")
        return True


def _search(host: Poset, target: Poset, domain, skip, surjective,
            meter: WorkMeter | None):
    """First map found from the points of domain to target that is a
    p-morphism on the subposet it keeps; None if there is none.

    domain must be an upset of host, listed top-down: every host point
    above a point of domain lies in domain and comes before it.  Each
    point is mapped to a target point, or, when skip is set, left out;
    points outside domain are left out.  The result is a list over the
    host points, -1 at those left out.

    The walk keeps seen[i], the image of the kept points in up(i), for
    each point i it has placed, and reads S, the image of the kept
    points strictly above x, as the union of seen[c] over the upper
    covers c of x:

    - If i maps to t, seen[i] = up(t).  The kept image strictly above i
      is S(i), and the candidate rule gives up(t) = S(i) or S(i) + {t}, so
      the kept image of up(i) = strict_up(i) + {i}, which is S(i) + {t}, is
      up(t) in both cases.  If i is left out, seen[i] = S(i).
    - Every point y strictly above x lies in up(c) for some upper cover
      c of x (take c minimal in the interval from x up to y), and each
      such up(c) lies in strict_up(x).  So strict_up(x) is the union of
      the up(c), and its kept image is the union of the seen[c].
    - Each cover c of x lies in domain, since domain is an upset, and
      comes before x, so seen[c] is set for the branch being walked.

    One node is counted per step of the walk.  The count is charged to
    meter once, at the end; when it passes what meter has left, the walk
    stops at the first node beyond it, charges up to that node and
    raises BudgetExceeded, as charging node by node would.

    An onto walk cuts a node at depth k when more targets are unhit
    than points are left, unhit > last - k.  A child cut at once is
    counted at its parent and never entered:

    - Call a node at depth k tight when unhit == last - k: each point
      left must hit a new target.  A child is at depth k + 1, with the
      parent's unhit or one less, and the parent passed its own test,
      unhit <= last - k.  So a child is cut exactly when its parent is
      tight and it keeps unhit: it maps to a target already hit, or it
      is the skip branch.
    - A node that is not tight has unhit <= last - k - 1, so it cuts no
      child, and every child it enters again passes the test.
    - A tight node walks its candidates in the same order.  It counts an
      already hit one, or the skip branch, as one node, with the same
      cap check, and enters only those that hit a new target.  The root
      has no parent: an onto walk over fewer points than targets counts
      one node and finds nothing.

    So the walk visits the same nodes in the same order as one that
    enters every child, and the trip rule is unchanged: stop at the
    first node past the cap and charge cap + 1.

    With skip set, x is left out only when no target point t has
    up(t) = S (at most one does, since up-sets are distinct).
    Mapping x to t sets seen[x] = up(t) = S and keeps hit and unhit,
    since t lies in S and S, an image of kept points, lies in hit.
    Leaving x out sets seen[x] = S, with the same hit and unhit.  The
    walk below x reads only seen, hit and unhit, and writes mapping only
    on success, so both children start the same subtree; the skip child
    comes after the t child has failed, so it fails too.  Dropping it
    keeps every answer and map and only removes nodes walked twice.
    """
    cands = target.image_candidates
    ups = target.up
    covers = host.upper_covers
    last = len(domain)
    seen = [0] * host.n
    mapping = [-1] * host.n
    left = None if meter is None else meter.remaining()
    cap = sys.maxsize if left is None else left
    nodes = 0

    def trip():
        meter.spent += nodes
        raise BudgetExceeded()

    # hit is the mask of target points hit so far and unhit the number
    # of the others; a search that need not be onto starts with all hit
    def rec(k, hit, unhit):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            trip()
        if k == last:
            return not unhit
        i = domain[k]
        s = 0
        for c in covers[i]:
            s |= seen[c]
        if unhit == last - k:
            # tight: a child that hits no new target is cut at once, so
            # it is counted here and never entered
            for t, bit, up_t in cands.get(s, ()):
                if hit & bit:
                    nodes += 1
                    if nodes > cap:
                        trip()
                    continue
                seen[i] = up_t
                if rec(k + 1, hit | bit, unhit - 1):
                    mapping[i] = t
                    return True
            if skip and s not in ups:
                nodes += 1
                if nodes > cap:
                    trip()
            return False
        for t, bit, up_t in cands.get(s, ()):
            seen[i] = up_t
            if rec(k + 1, hit | bit, unhit - (not hit & bit)):
                mapping[i] = t
                return True
        if skip and s not in ups:
            seen[i] = s
            return rec(k + 1, hit, unhit)
        return False

    if not surjective:
        found = rec(0, target.full_mask, 0)
    elif target.n <= last:
        found = rec(0, 0, target.n)
    else:
        # too few points to be onto: the root is cut at once
        found = False
        nodes = 1
        if nodes > cap:
            trip()
    if meter is not None:
        meter.spent += nodes
    return mapping if found else None


def find_pmorphism(source: Poset, target: Poset, surjective=False,
                   meter: WorkMeter | None = None):
    """First p-morphism found, or None; exhaustive, so None is a proof."""
    if source.n == 0:
        return None if (surjective and target.n > 0) else PMorphism(source, target, ())
    if target.n == 0:
        return None
    if surjective and target.n > source.n:
        return None
    mapping = _search(source, target, source.topdown, False, surjective, meter)
    if mapping is None:
        return None
    pm = PMorphism(source, target, tuple(mapping))
    pm.validate()
    return pm


def image_of_upset(target: Poset, host: Poset, meter: WorkMeter | None = None) -> bool:
    """Is the rooted target a p-morphic image of some upset of host?

    Only the principal upsets up(x) need searching.  Let a map an upset U
    of host onto target, and let x in U be sent to the root r.  U is an
    upset, so up(x) lies inside U and the up-set of each of its points is
    the same in up(x) as in U: a, cut down to up(x), keeps the back
    condition.  Its image is a(up(x)) = up(a(x)) = up(r), all of
    target, so it is onto.  Conversely up(x) is an upset.  Each up(x) is
    searched without leaving points out, largest first, so the walk stops
    at the first up(x) smaller than target; the height of up(x) is that
    of x in host.  An up(x) lower or narrower than target is skipped:
    preimages of a chain (picked upward by the back condition) or of an
    antichain (a p-morphism is monotone) under a map onto target form one
    of the same size.
    """
    if target.n == 0:
        return True
    if target.root_index is None:
        raise ValueError("image_of_upset expects a rooted target")
    h = host._heights
    order = host.topdown
    tw = width(target)
    th = target.height
    for x in host.by_upset_size:
        up_x = host.up[x]
        if up_x.bit_count() < target.n:
            break
        if h[x] < th or host.upset_widths[x] < tw:
            continue
        domain = [i for i in order if up_x >> i & 1]
        if _search(host, target, domain, False, True, meter) is not None:
            return True
    return False


def image_of_subposet(target: Poset, host: Poset, meter: WorkMeter | None = None) -> bool:
    """Is the rooted target a p-morphic image of some subposet of host?
    Not if host is narrower: preimages of an antichain of target form an
    antichain of the subposet, so of host."""
    if target.n == 0:
        return True
    if target.n > host.n:
        return False
    if host.full_width < width(target):
        return False
    return _search(host, target, host.topdown, True, True, meter) is not None


# E-partitions ------------------------------------------------------------


def epartitions(p: Poset, cap: int | None = None):
    """All E-partitions of p: tuples of block masks sorted by least
    point, in the order the walk finds them.

    One walk places the points top-down, in the order p.topdown.  Let s
    be the set of blocks that meet strict_up(x).  x may join block b only
    when s + {b} == sees[b], the set of blocks meeting up(y) for the points
    y already in b; a new block gets sees = s + {itself}.  Every leaf is an
    E-partition, and every E-partition is a leaf:

    - Every point strictly above x has smaller height, so it is placed
      before x.  So the set of blocks meeting up(x), s + {block of x}, is
      final when x is placed.
    - Condition (a) says exactly that all points of a block have the same
      such set, and the walk checks it for each point as it is placed.
    - So s is the OR of sees[block[c]] over the upper covers c of x:
      strict_up(x) is the union of up(c) over those covers (as in
      _search), and sees[block[c]] is the set of blocks meeting up(c),
      since (a) was checked when c was placed.
    - Antisymmetry of the block order follows, so it needs no check.
      Let blocks b != c see each other, and let m be a maximal point of
      b + c, say in b.  All points of b see c, so some point of c lies in
      up(m); it is not m, so it lies strictly above m, against the choice
      of m.
    """
    cap = _budget.DEFAULT_EPARTITION_CAP if cap is None else cap
    if p.n > cap:
        raise BudgetExceeded(f"{p.n} elements exceeds E-partition cap {cap}")
    n = p.n
    order = p.topdown
    covers = p.upper_covers
    block = [0] * n  # block of each placed point
    sees = []  # per block: the blocks meeting up(y) for its points y
    members = []  # per block: the mask of its points
    leaves = []

    def rec(k):
        if k == n:
            leaves.append(tuple(sorted(members, key=lambda m: m & -m)))
            return
        x = order[k]
        s = 0
        for c in covers[x]:
            s |= sees[block[c]]
        for b in range(len(sees)):
            if s | 1 << b == sees[b]:
                block[x] = b
                members[b] |= 1 << x
                rec(k + 1)
                members[b] ^= 1 << x
        new = len(sees)
        block[x] = new
        sees.append(s | 1 << new)
        members.append(1 << x)
        rec(k + 1)
        sees.pop()
        members.pop()

    rec(0)
    return leaves


def quotient(p: Poset, blocks):
    """The quotient of p by an E-partition, given as block masks, and its
    projection p-morphism; block b of the quotient is point b.

    One pass computes, for each point x, the set of blocks meeting up(x),
    and requires it to be the same for all points of a block; the
    quotient's up-set of a block is that set.  This is condition (a), and
    it is also the back condition of the projection a:
    a(up(x)) is the set of blocks meeting up(x), and up(a(x)) is the set
    kept for the block of x, so the two agree for every x exactly when
    the set is constant on blocks.  The sets form a partial order:
    - reflexive, since x lies in up(x);
    - transitive: if b sees c and c sees d, take x in b, y in c above
      x and z in d above y; z lies in up(x), so b sees d;
    - antisymmetric, by the argument in epartitions.
    """
    covered = 0
    for m in blocks:
        if m & covered or m == 0:
            raise NotAnEPartition("blocks are not a partition")
        covered |= m
    if covered != p.full_mask:
        raise NotAnEPartition("blocks are not a partition")
    block_of = [0] * p.n
    for b, m in enumerate(blocks):
        for i in _bits(m):
            block_of[i] = b
    ups = [None] * len(blocks)
    for i in range(p.n):
        s = 0
        for j in _bits(p.up[i]):
            s |= 1 << block_of[j]
        b = block_of[i]
        if ups[b] is None:
            ups[b] = s
        elif ups[b] != s:
            raise NotAnEPartition("blocks violate the E-partition conditions")
    q = Poset(tuple(f"b{b}" for b in range(len(blocks))), tuple(ups))
    return q, PMorphism(p, q, tuple(block_of))
