"""Upset enumeration by depth-first search: the test oracle for
ipckit.poset.iter_upset_masks, which enumerates by size instead."""


def upset_masks_dfs(p):
    """All upsets of p as bitmasks, sorted by (size, mask)."""
    out = []
    # points with smaller upsets first, so every point strictly above x is
    # decided before x and the inclusion check reads decided points only
    order = sorted(range(p.n), key=lambda i: bin(p.up[i]).count("1"))

    def rec(k, mask):
        if k == len(order):
            out.append(mask)
            return
        i = order[k]
        rec(k + 1, mask)
        if p.up[i] & ~(1 << i) & ~mask == 0:
            rec(k + 1, mask | 1 << i)

    rec(0, 0)
    out.sort(key=lambda m: (bin(m).count("1"), m))
    return out
