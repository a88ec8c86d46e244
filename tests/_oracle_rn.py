"""Test oracles for the rn-closure scenario.

- rn_members builds the closure family block by block with poset.stack,
  against scenarios.rn_members, which builds its word members with
  catalog.rn_member;
- rn_members_filtered builds every word member up to the size with
  catalog.rn_member and keeps those that fit, against scenarios.rn_members,
  which stops each loop at the first member that does not fit;
- rn_closure_escape checks every rooted quotient of every upset, against
  scenarios.rn_closure_escape, which checks the principal upsets and the
  member's own quotients;
- quotient_codes codes the quotient by every E-partition, against
  scenarios._quotient_codes, which reads the quotient classes off one-step
  reductions.
"""

from __future__ import annotations

from ipckit.catalog import chain, ladder_upset, one_point, rn_member, simple_space
from ipckit.morphisms import epartitions, quotient
from ipckit.poset import canonical_code, root, stack, upset_masks
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


def rn_members_filtered(size, nmax):
    """scenarios.rn_members by building every candidate and then keeping
    those of at most size points: the same pairs, in the same order."""
    found = {}

    def add(member, param):
        code = canonical_code(member)
        if code not in found or found[code][1] > param:
            found[code] = (member, param)

    add(one_point(), 0)
    for word in _words_upto(size):
        for k in range(0, size + 1):
            member = rn_member(word, k=k)
            if member.n <= size:
                add(member, 0)
        for m in range(0, nmax + 1):
            member = rn_member(word, m=m)
            if member.n <= size:
                add(member, m)
    for m in range(0, nmax + 1):
        if 1 + 4 + m <= size:
            add(stack([("h", one_point()), ("f", ladder_upset(4)),
                       ("c", chain(m))]), m)
    return [found[c] for c in sorted(found)]


def rn_closure_escape(member, member_codes):
    """The closure check over every upset, as scenarios.rn_closure_escape:
    a detail naming the first rooted quotient of an upset of member whose
    code is outside member_codes, or None."""
    for mask in upset_masks(member):
        sub = member.restrict(mask)
        for part in epartitions(sub, cap=sub.n):
            q, _ = quotient(sub, part)
            if root(q) is None:
                continue
            if canonical_code(q) not in member_codes:
                return (f"rooted image {canonical_code(q).decode()} "
                        "escapes the family")
    return None


def quotient_codes(p):
    """The sorted codes of p's quotients, one per E-partition, as
    scenarios._quotient_codes."""
    return sorted({canonical_code(quotient(p, part)[0])
                   for part in epartitions(p, cap=p.n)})
