"""Ordinal sums by cover pairs and transitive closure: the test oracle for
ipckit.poset.stack and ipckit.catalog.ladder_trunc, which write the
up-set masks directly; and the ladder's top segment as a restriction of
a deeper ladder, the oracle for ipckit.catalog.ladder_top_segment."""

from ipckit.catalog import ladder
from ipckit.poset import build_poset


def ladder_top_segment_by_restriction(m):
    """Points w0..wm restricted out of a ladder of at least four points."""
    lad = ladder(max(m + 1, 4))
    mask = 0
    for i in range(m + 1):
        mask |= 1 << lad.index(f"w{i}")
    return lad.restrict(mask, name=f"T({m})")


def stack_by_covers(blocks, name=None):
    """Ordinal sum of (tag, poset) blocks, first block on top: each block's
    covers, plus every maximal point of a block below every minimal point
    of the nonempty block above it, closed by build_poset."""
    els = []
    covers = []
    prev_minimal = None
    for tag, block in blocks:
        if block.n == 0:
            continue
        named = [f"{tag}.{e}" for e in block.elements]
        els += named
        covers += [(named[i], named[j]) for i, j in block.covers()]
        maximal = [named[i] for i in range(block.n) if block.strict_up(i) == 0]
        if prev_minimal is not None:
            covers += [(m, u) for m in maximal for u in prev_minimal]
        down = block.down_masks()
        prev_minimal = [named[i] for i in range(block.n)
                        if down[i] == 1 << i]
    return build_poset(els, covers, name=name)


def ladder_trunc_by_covers(n_points):
    """The segment's covers, plus omega below each of its minimal points."""
    seg = ladder_top_segment_by_restriction(n_points - 1)
    els = list(seg.elements) + ["omega"]
    covers = [(seg.elements[i], seg.elements[j]) for i, j in seg.covers()]
    down = seg.down_masks()
    covers += [("omega", seg.elements[i]) for i in range(seg.n)
               if down[i] == 1 << i]
    return build_poset(els, covers, name=f"Ltrunc({n_points})")
