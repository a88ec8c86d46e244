"""Test oracles for ipckit.poset.

- The canonical code and the enumeration as they were before the
  enumeration pruned each parent's downsets by its automorphisms and
  canonical_code took its shortcuts on discrete colourings: every
  candidate is coded, and each code refines and searches in full.
- The rooted enumeration sorted by the code of each rooted poset, which
  enumerate_rooted replaced by codes derived from the unrooted parents.
- Antichain sizes by trying every subset.
- The transitive closure that build_poset took by repeating a sweep
  until nothing changed, before its one Warshall sweep.
- The generator that walked the set bits of a mask before _bits read a
  byte table; the oracles here walk masks with it.
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
            r = r << 2 | (p.leq_idx(v, u) << 1 | p.leq_idx(u, v))
        return r

    def twins(u, v):
        # the transposition (u v) is an automorphism
        if colors[u] != colors[v] or p.leq_idx(u, v) or p.leq_idx(v, u):
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


def max_antichain_brute(p, mask):
    """Size of the largest antichain inside mask, over all its subsets."""
    points = [i for i in range(p.n) if mask >> i & 1]
    best = 0
    for sub in range(1 << len(points)):
        chosen = [points[k] for k in range(len(points)) if sub >> k & 1]
        if len(chosen) > best and all(
                not p.leq_idx(a, b) and not p.leq_idx(b, a)
                for k, a in enumerate(chosen) for b in chosen[k + 1:]):
            best = len(chosen)
    return best


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
