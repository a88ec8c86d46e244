"""Test oracles for the fused top-down search in ipckit.morphisms.

search is the fused walk that reads the kept image above each point off
all of strict_up, keeps a hit count per target point and charges the
meter one node at a time; morphisms._search must visit the same nodes in
the same order and return the same map.  With skip set it leaves a point
out only when no target point has the kept image above it as its up-set.

fused_search is morphisms._search as it was before it dropped that skip
branch, copied verbatim: it walks the subtree of such a skip a second
time, so it must return the same answer and map with at least as many
nodes.

find_pmorphism is the backtracking search that ipckit.morphisms keeps as
its no-skip case, with the same order, candidates and node charges.
image_of_upset and image_of_subposet build every candidate upset or
subset with Poset.restrict and run a surjective find_pmorphism on each;
they prune by width with the branch-and-bound oracle, so they share no
width code with ipckit.
"""

from __future__ import annotations

import sys

from ipckit.budget import WorkMeter
from ipckit.errors import BudgetExceeded
from ipckit.morphisms import PMorphism
from ipckit.poset import Poset, _bits, upset_masks

from _oracle_poset import max_antichain_bnb


def _width(p):
    """The largest antichain in a principal upset of p, 0 if p is empty."""
    return max((max_antichain_bnb(p, u) for u in p.up), default=0)


def _charge(meter):
    """One node, raising once the meter's limit is crossed."""
    meter.spent += 1
    if meter.limit is not None and meter.spent > meter.limit:
        raise BudgetExceeded()


def search(host: Poset, target: Poset, domain, skip, surjective,
           meter: WorkMeter | None):
    """First map found from the points of domain to target that is a
    p-morphism on the subposet it keeps; None if there is none.

    domain lists host points top-down, so every host point above a point
    comes before it or lies outside domain.  Each point is mapped to a
    target point, or, when skip is set, left out; points outside domain
    are left out.  One node is charged per step of the walk.  The result
    is a list over the host points, -1 at those left out.
    """
    # kept images strictly above a point -> its candidates: the t with
    # up(t) == above (t already hit), then those with up(t) == above + {t}
    cands = {}
    for t in range(target.n):
        cands[target.up[t]] = [t]
    for t in range(target.n):
        cands.setdefault(target.strict_up(t), []).append(t)
    above = [tuple(_bits(host.strict_up(i))) for i in domain]
    last = len(domain)
    image = [0] * host.n  # bit of the image of each kept point, else 0
    hit = [0] * target.n

    def rec(k, unhit):
        if meter is not None:
            _charge(meter)
        if k == last:
            return not surjective or unhit == 0
        if surjective and unhit > last - k:
            return False
        s_mask = 0
        for j in above[k]:
            s_mask |= image[j]
        i = domain[k]
        for t in cands.get(s_mask, ()):
            image[i] = 1 << t
            hit[t] += 1
            if rec(k + 1, unhit - (hit[t] == 1)):
                return True
            hit[t] -= 1
        image[i] = 0
        return skip and s_mask not in target.up and rec(k + 1, unhit)

    if not rec(0, target.n):
        return None
    return [b.bit_length() - 1 for b in image]


def fused_search(host: Poset, target: Poset, domain, skip, surjective,
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
    """
    cands = target.image_candidates
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
            if skip:
                nodes += 1
                if nodes > cap:
                    trip()
            return False
        for t, bit, up_t in cands.get(s, ()):
            seen[i] = up_t
            if rec(k + 1, hit | bit, unhit - (not hit & bit)):
                mapping[i] = t
                return True
        if skip:
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


def _height_order(p):
    h = p.heights()
    return sorted(range(p.n), key=lambda i: (h[i], i))


def find_pmorphism(source: Poset, target: Poset, surjective=False,
                   meter: WorkMeter | None = None):
    """First p-morphism found, or None; exhaustive, so None is a proof."""
    if source.n == 0:
        return None if (surjective and target.n > 0) else PMorphism(source, target, ())
    if target.n == 0:
        return None
    if surjective and target.n > source.n:
        return None
    order = _height_order(source)
    by_upmask = {target.up[t]: t for t in range(target.n)}
    mapping = [-1] * source.n
    hit = [0] * target.n

    def rec(k, unhit):
        if meter is not None:
            _charge(meter)
        if k == len(order):
            return not surjective or unhit == 0
        i = order[k]
        if surjective and unhit > len(order) - k:
            return False
        s_mask = 0
        for j in _bits(source.strict_up(i)):
            s_mask |= 1 << mapping[j]
        cands = []
        t = by_upmask.get(s_mask)
        if t is not None and s_mask >> t & 1:
            cands.append(t)
        for t in _bits(~s_mask & ((1 << target.n) - 1)):
            if target.up[t] == s_mask | 1 << t:
                cands.append(t)
        for t in cands:
            mapping[i] = t
            hit[t] += 1
            rec_unhit = unhit - (1 if hit[t] == 1 else 0)
            if rec(k + 1, rec_unhit):
                return True
            hit[t] -= 1
            mapping[i] = -1
        return False

    if rec(0, target.n):
        pm = PMorphism(source, target, tuple(mapping))
        pm.validate()
        return pm
    return None


def _can_map_onto(source, target, meter):
    return find_pmorphism(source, target, surjective=True, meter=meter) is not None


def image_of_upset(target: Poset, host: Poset, meter: WorkMeter | None = None) -> bool:
    """Is the rooted target a p-morphic image of some upset of host?"""
    if target.n == 0:
        return True
    tw = _width(target)
    th = max(target.heights()) if target.n else 0
    for mask in sorted(upset_masks(host),
                       key=lambda m: -bin(m).count("1")):
        size = bin(mask).count("1")
        if size < target.n:
            continue
        if max_antichain_bnb(host, mask) < tw:
            continue
        sub = host.restrict(mask)
        if max(sub.heights(), default=-1) < th:
            continue
        if _can_map_onto(sub, target, meter):
            return True
    return False


def image_of_subposet(target: Poset, host: Poset, meter: WorkMeter | None = None) -> bool:
    """Is the rooted target a p-morphic image of some subposet of host?"""
    if target.n == 0:
        return True
    if target.n > host.n:
        return False
    tw = _width(target)
    th = max(target.heights())
    if max_antichain_bnb(host, host.full_mask) < tw:
        return False
    full = 1 << host.n
    for mask in range(full - 1, 0, -1):
        if bin(mask).count("1") < target.n:
            continue
        sub = host.restrict(mask)
        if max(sub.heights()) < th:
            continue
        if _can_map_onto(sub, target, meter):
            return True
    return False
