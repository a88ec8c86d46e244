"""Test oracles for ipckit.poset: the rooted enumeration sorted by
canonical_code of each rooted poset, which enumerate_rooted replaced by
codes derived from the unrooted parents, and antichain sizes by trying
every subset."""

from ipckit.poset import Poset, canonical_code, enumerate_posets, width


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
