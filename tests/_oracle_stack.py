"""Ordinal sums by cover pairs and transitive closure: the test oracle for
ipckit.poset.stack and ipckit.catalog.ladder_trunc, which write the
up-set masks directly; the ladder of a given depth, as ipckit.catalog
built it before ladder_top_segment built T(m) itself, and the ladder's
top segment as a restriction of a deeper ladder, the oracles for
ipckit.catalog.ladder_top_segment; the ladder upset L(k) restricted out
of a ladder of depth 24, as ipckit.catalog.ladder_upset built it before
it read a shallower ladder; and the ordinal-sum cuts one size at a time
with the KG factors matched against a set of ladder codes, the oracles
for ipckit.axioms.sum_blocks and ipckit.axioms.decompose_kg."""

from functools import lru_cache

from ipckit.catalog import ladder_top_segment, one_point
from ipckit.errors import ParameterOutOfRange
from ipckit.poset import build_poset, canonical_code, root


@lru_cache(maxsize=None)
def ladder(depth):
    """Top part of the one-generated dual frame: points w0..w_{depth-1},
    point w_n covered by w_{n-2} and w_{n-3} (cache bound: one poset per
    depth asked for)."""
    if depth < 1:
        raise ParameterOutOfRange("ladder depth must be >= 1")
    covers = []
    for i in range(2, depth):
        covers.append((f"w{i}", f"w{i-2}"))
        if i >= 3:
            covers.append((f"w{i}", f"w{i-3}"))
    return build_poset([f"w{i}" for i in range(depth)], covers, name="ladder")


def ladder_top_segment_by_restriction(m):
    """Points w0..wm restricted out of a ladder of at least four points."""
    lad = ladder(max(m + 1, 4))
    mask = 0
    for i in range(m + 1):
        mask |= 1 << lad.index(f"w{i}")
    return lad.restrict(mask, name=f"T({m})")


def ladder_upset_at_depth_24(k):
    """The principal upset of w_k inside the ladder of depth 24."""
    lad = ladder(24)
    i = lad.index(f"w{k}")
    return lad.restrict(lad.up[i], name=f"L({k})")


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


def sum_blocks_by_cut_loop(p):
    """Finest ordinal-sum decomposition, top block first: for each size m,
    the m points with fewer than m points strictly above them, kept as a
    cut when every other point lies below all of them."""
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


def decompose_kg_by_codes(x):
    """The KG factors of rooted x, or None: the blocks above a final
    one-point block, each with its code in the set of the point's code and
    the codes of T(1) .. T(x.n)."""
    if root(x) is None:
        raise ValueError("decompose_kg expects a rooted poset")
    blocks = sum_blocks_by_cut_loop(x)
    if blocks[-1].n != 1:
        return None
    good = {canonical_code(one_point())}
    good |= {canonical_code(ladder_top_segment(m)) for m in range(1, x.n + 1)}
    factors = blocks[:-1]
    if any(canonical_code(b) not in good for b in factors):
        return None
    return factors
