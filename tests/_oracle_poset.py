"""Test oracles for ipckit.poset.

- The canonical code and the enumeration as they were before the
  enumeration pruned each parent's downsets and canonical_code stopped
  at twin classes (first on discrete colourings, then wherever the
  colours number the twin classes): every candidate is coded, and each
  code refines until a round splits nothing and searches in full.
- The automorphism search by which the enumeration once pruned each
  parent's downsets, keeping one per Aut(q)-orbit, before it kept one per
  orbit of the twin swaps: 3,636 candidates coded for sizes 1-7 instead
  of 3,437, with the same representatives.  The tests check the twin
  swaps and their orbits against it.
- The rooted enumeration sorted by the code of each rooted poset, which
  enumerate_rooted replaced by its parents' order, and _rooted_code, the
  rooted code read off the parent's code, whose proof shows that the
  order is the same.
- Antichain sizes by trying every subset, and by the branch-and-bound
  over comparability masks that the width memos ran before they counted
  a largest matching (Dilworth, Fulkerson).
- The transitive closure that build_poset took by repeating a sweep
  until nothing changed, before its one Warshall sweep.
- The generator that walked the set bits of a mask before _bits read a
  byte table; the oracles here walk masks with it.
- The heights by a sort on up-set size and a list per point, and
  topdown by a second sort, before Poset read both off one peel.
"""

from functools import lru_cache

from ipckit.errors import CycleDetected
from ipckit.poset import EMPTY, Poset, upset_masks, width


def _bits(mask):
    """The set bits of mask, lowest first, one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# canonical form, every candidate coded ----------------------------------


def _refined_colors(p):
    n = p.n
    down = p.down_masks()
    colors = [(bin(p.up[i]).count("1"), bin(down[i]).count("1")) for i in range(n)]
    rank = {c: k for k, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    while True:
        sigs = []
        for i in range(n):
            above = tuple(sorted(colors[j] for j in _bits(p.strict_up(i))))
            below = tuple(sorted(colors[j] for j in _bits(down[i] & ~(1 << i))))
            sigs.append((colors[i], above, below))
        rank = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


class _Improved(Exception):
    pass


def _min_rows(p, colors):
    n = p.n
    color_seq = sorted(colors)
    by_color = {}
    for i in sorted(range(n), key=lambda i: (colors[i], i)):
        by_color.setdefault(colors[i], []).append(i)
    down = p.down_masks()

    def row_for(v, order):
        r = 0
        for u in order:
            r = r << 2 | (p.up[v] >> u & 1) << 1 | p.up[u] >> v & 1
        return r

    def twins(u, v):
        # the transposition (u v) is an automorphism
        if colors[u] != colors[v] or p.up[u] >> v & 1 or p.up[v] >> u & 1:
            return False
        pair = 1 << u | 1 << v
        return (
            p.up[u] & ~pair == p.up[v] & ~pair
            and down[u] & ~pair == down[v] & ~pair
        )

    # greedy descent for the initial bound
    order = []
    used = 0
    best = []
    for k in range(n):
        v = next(i for i in by_color[color_seq[k]] if not used >> i & 1)
        best.append(row_for(v, order))
        order.append(v)
        used |= 1 << v

    def rec(k, used, order, rows, tight):
        nonlocal best
        if k == n:
            if not tight:
                best = list(rows)
                raise _Improved
            return
        tried = []
        for v in by_color[color_seq[k]]:
            if used >> v & 1:
                continue
            if any(twins(u, v) for u in tried):
                continue
            tried.append(v)
            r = row_for(v, order)
            if tight:
                if r > best[k]:
                    continue
                nt = r == best[k]
            else:
                nt = False
            order.append(v)
            rows.append(r)
            rec(k + 1, used | 1 << v, order, rows, nt)
            order.pop()
            rows.pop()

    while True:
        try:
            rec(0, 0, [], [], True)
        except _Improved:
            continue
        return color_seq, tuple(best)


@lru_cache(maxsize=None)
def canonical_code(p):
    """Byte string equal for two posets iff they are order-isomorphic."""
    if p.n == 0:
        return b"P0"
    colors = _refined_colors(p)
    seq, rows = _min_rows(p, colors)
    body = ",".join(str(c) for c in seq) + "|" + ",".join(format(r, "x") for r in rows)
    return f"P{p.n}:{body}".encode()


def _automorphisms(p):
    """Every automorphism of p, as the tuple of the images of its points,
    in lexicographic order, so the identity comes first.

    A backtracking search maps the points in index order.  Each point's
    image is tried only inside its own colour class, since an automorphism
    keeps _refined_colors, and a partial map is extended only while it
    keeps <= in both directions between the points mapped so far.  So
    every leaf is an automorphism, and every automorphism is a leaf.
    """
    n = p.n
    up = p.up
    down = p.down_masks()
    colors = _refined_colors(p)
    same = {}
    for j in range(n):
        same.setdefault(colors[j], []).append(j)
    out = []
    img = [0] * n

    def rec(i, used):
        if i == n:
            out.append(tuple(img))
            return
        done = (1 << i) - 1
        want_up = want_down = 0
        for k in _bits(up[i] & done):
            want_up |= 1 << img[k]
        for k in _bits(down[i] & done):
            want_down |= 1 << img[k]
        for j in same[colors[i]]:
            if (not used >> j & 1
                    and up[j] & used == want_up and down[j] & used == want_down):
                img[i] = j
                rec(i + 1, used | 1 << j)

    rec(0, 0)
    return out


@lru_cache(maxsize=None)
def enumerate_posets(n):
    """One representative per isomorphism class, sorted by canonical code."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        return (EMPTY,)
    seen = {}
    for q in enumerate_posets(n - 1):
        # the downsets of q, complements of its upsets, in mask order
        for dmask in sorted(q.full_mask ^ u for u in upset_masks(q)):
            # adjoin a new maximal element above exactly dmask
            els = tuple(f"e{i}" for i in range(n))
            ups = []
            for i in range(q.n):
                m = q.up[i]
                if dmask >> i & 1:
                    m |= 1 << (n - 1)
                ups.append(m)
            ups.append(1 << (n - 1))
            cand = Poset(els, tuple(ups))
            code = canonical_code(cand)
            if code not in seen:
                seen[code] = cand
    return tuple(seen[c] for c in sorted(seen))


# rooted enumeration and widths -----------------------------------------


def add_root(q):
    """q with a root below all of it, as the last point."""
    n = q.n + 1
    return Poset(tuple(f"e{i}" for i in range(n)), q.up + ((1 << n) - 1,))


def _rooted_code(q):
    """canonical_code of q with a new root added below all of q, as the
    last point, read off canonical_code(q) with no refinement and no
    search.

    Let q have n > 0 points and code P{n}:seq|rows, and call the rooted
    poset r.  Then r's code is P{n+1}:seq,d|rows,R with d = max(seq) + 1
    and R the hex of "10" repeated n times:

    - _refined_colors.  The root's start colour (n + 1, 1) is the unique
      largest, since every other point has a smaller up-set.  Every point
      of q gains one point below, which keeps the order of their start
      colours, so their ranks are those in q and the root's is the next.
      In each round a point of q keeps its up-set, and its below-tuple
      gains the root's colour, the largest, at its end.  Two signatures
      of equal colour have equal down-counts, since the start colour
      holds the down-count and refinement only splits colours, so their
      below-tuples have equal length and the appended colour keeps their
      order; signatures of unequal colour are ordered by the colour.  The
      root's signature leads with the largest colour.  So every round
      ranks q's points as in q and the root last, and the refinement
      stops in the same round, with the colours of q and d for the root.
    - _min_rows.  The root is alone in the last colour class, so the
      first n places of every order hold q's points, in the same classes.
      Their rows compare them with q's points only, as in q, and the twin
      test is unchanged: the root lies below both points of a pair, so
      their down-sets gain the same bit.  The search over the first n
      places is q's search, and the last place always holds the root,
      whose row is fixed, because every point lies above it: each pair of
      bits is 1 0 (root <= u, not u <= root).  So the least rows are q's
      rows followed by R.

    The one-point poset has code P1:0|0.  enumerate_rooted's docstring
    shows that these suffixes keep the order of the codes up to 11
    points.
    """
    n = q.n
    if n == 0:
        return b"P1:0|0"
    head, rows = canonical_code(q).split(b"|")
    seq = head.split(b":")[1]
    d = max(int(c) for c in seq.split(b",")) + 1
    return b"P%d:%s,%d|%s,%s" % (n + 1, seq, d, rows, format(int("10" * n, 2), "x").encode())


def enumerate_rooted_by_code(size, max_width=None):
    """Each poset of size - 1 points with a root added, filtered on the
    rooted poset's own width and sorted by its own code."""
    out = []
    for q in enumerate_posets(size - 1):
        r = add_root(q)
        if max_width is None or width(r) <= max_width:
            out.append(r)
    out.sort(key=canonical_code)
    return out


def max_antichain_bnb(p, mask):
    """Size of the largest antichain inside mask, by the branch-and-bound
    that poset._max_antichain ran before it counted a largest matching:
    take the lowest point left or leave it out, and cut a branch that
    cannot beat the best found."""
    down = p.down_masks()
    comp = [u | d for u, d in zip(p.up, down)]
    best = 0

    def rec(avail, size):
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if not avail:
            best = max(best, size)
            return
        i = (avail & -avail).bit_length() - 1
        rec(avail & ~comp[i], size + 1)
        rec(avail & ~(1 << i), size)

    rec(mask, 0)
    return best


def max_antichain_brute(p, mask):
    """Size of the largest antichain inside mask, over all its subsets."""
    points = [i for i in range(p.n) if mask >> i & 1]
    best = 0
    for sub in range(1 << len(points)):
        chosen = [points[k] for k in range(len(points)) if sub >> k & 1]
        if len(chosen) > best and all(
                not p.up[a] >> b & 1 and not p.up[b] >> a & 1
                for k, a in enumerate(chosen) for b in chosen[k + 1:]):
            best = len(chosen)
    return best


# heights and topdown ----------------------------------------------------


def heights_by_sort(p):
    """Per point, its longest-chain distance from the top: the points by
    up-set size, each one more than the largest height strictly above."""
    h = [None] * p.n
    for i in sorted(range(p.n), key=lambda i: p.up[i].bit_count()):
        above = [h[j] for j in _bits(p.strict_up(i))]
        h[i] = 1 + max(above) if above else 0
    return tuple(h)


def topdown_by_sort(p):
    """The points by height, then index."""
    h = heights_by_sort(p)
    return tuple(sorted(range(p.n), key=lambda i: (h[i], i)))


# closure ----------------------------------------------------------------


def closed_up(n, pairs):
    """The up-masks of points 0..n-1 under the index pairs a < b, closed by
    sweeping until nothing changes; CycleDetected on a cycle."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m = up[i]
            acc = m
            for j in _bits(m):
                acc |= up[j]
            if acc != m:
                up[i] = acc
                changed = True
    for i in range(n):
        for j in _bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise CycleDetected(f"{i} and {j}")
    return tuple(up)
