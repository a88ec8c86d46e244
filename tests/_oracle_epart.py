"""Generate-and-filter E-partitions: the test oracle for the top-down
E-partition walk and the one-pass quotient check in ipckit.morphisms.

epartitions builds every set partition of the points in restricted-growth
order and keeps those that pass _blocks_ok (condition (a) and
antisymmetry of the block order).  As in ipckit, an E-partition is a
tuple of block masks sorted by least point.  is_epartition,
collapse_upset and kernel_partition build and check E-partitions for the
tests.
"""

from __future__ import annotations

from ipckit import budget as _budget
from ipckit.errors import BudgetExceeded
from ipckit.morphisms import PMorphism
from ipckit.poset import Poset, _bits


def _set_partitions(n):
    """Restricted-growth enumeration of set partitions of range(n)."""
    parts = []

    def rec(i):
        if i == n:
            yield [list(b) for b in parts]
            return
        for b in parts:
            b.append(i)
            yield from rec(i + 1)
            b.pop()
        parts.append([i])
        yield from rec(i + 1)
        parts.pop()

    yield from rec(0)


def _blocks_ok(p, masks):
    """Condition (a) plus a partial order on blocks."""
    k = len(masks)
    # sees[b][c]: some element of block b lies below some element of block c
    sees = [[False] * k for _ in range(k)]
    for b in range(k):
        for c in range(k):
            any_sees = False
            all_see = True
            for i in _bits(masks[b]):
                if p.up[i] & masks[c]:
                    any_sees = True
                else:
                    all_see = False
            if any_sees and not all_see:
                return None  # condition (a) fails
            sees[b][c] = any_sees
    # antisymmetry is the finite content of the saturated-upset separation
    for b in range(k):
        for c in range(k):
            if b != c and sees[b][c] and sees[c][b]:
                return None
    return sees


def epartitions(p: Poset, cap: int | None = None):
    """All E-partitions of p, deterministic block ordering."""
    cap = _budget.DEFAULT_EPARTITION_CAP if cap is None else cap
    if p.n > cap:
        raise BudgetExceeded(f"{p.n} elements exceeds E-partition cap {cap}")
    if p.n == 0:
        return [()]
    out = []
    for part in _set_partitions(p.n):
        masks = []
        for b in part:
            m = 0
            for i in b:
                m |= 1 << i
            masks.append(m)
        if _blocks_ok(p, masks) is None:
            continue
        out.append(tuple(masks))
    return out


def is_epartition(p: Poset, blocks) -> bool:
    covered = 0
    for m in blocks:
        if m & covered or m == 0:
            return False
        covered |= m
    if covered != p.full_mask:
        return False
    return _blocks_ok(p, list(blocks)) is not None


def collapse_upset(p: Poset, mask):
    """The E-partition identifying the upset mask to one point."""
    blocks = [mask] + [1 << i for i in range(p.n) if not mask >> i & 1]
    return tuple(sorted(blocks, key=lambda m: m & -m))


def kernel_partition(pm: PMorphism):
    """The blocks of points with a common image, sorted by least point."""
    by_target = {}
    for i, t in enumerate(pm.mapping):
        by_target[t] = by_target.get(t, 0) | 1 << i
    return tuple(sorted(by_target.values(), key=lambda m: m & -m))
