"""The closure family built block by block with catalog.stack: the test
oracle for scenarios.rn_members, which builds its word members with
catalog.rn_member."""

from __future__ import annotations

from ipckit.catalog import chain, ladder_upset, one_point, simple_space, stack
from ipckit.poset import canonical_code
from ipckit.scenarios import _words_upto


def rn_members(size, nmax):
    """(poset, param) pairs in canonical-code order, as scenarios.rn_members."""
    found = {canonical_code(one_point()): (one_point(), 0)}
    for word in _words_upto(size):
        w = sum(word)
        for k in range(0, size + 1):
            tail = ladder_upset(k) if k > 0 else one_point()
            total = 1 + w + tail.n
            if total > size:
                continue
            top = stack([("h", one_point()), ("s", simple_space(word)),
                         ("t", tail)])
            code = canonical_code(top)
            if code not in found or found[code][1] > 0:
                found[code] = (top, 0)
        for m in range(0, nmax + 1):
            total = 1 + w + 1 + 4 + m
            if total > size:
                continue
            member = stack([
                ("h", one_point()),
                ("s", simple_space(word)),
                ("j", one_point()),
                ("f", ladder_upset(4)),
                ("c", chain(m)),
            ])
            code = canonical_code(member)
            if code not in found or found[code][1] > m:
                found[code] = (member, m)
    for m in range(0, nmax + 1):
        if 1 + 4 + m <= size:
            member = stack([("h", one_point()), ("f", ladder_upset(4)),
                            ("c", chain(m))])
            code = canonical_code(member)
            if code not in found or found[code][1] > m:
                found[code] = (member, m)
    return [found[c] for c in sorted(found)]
