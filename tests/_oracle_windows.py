"""Test oracle for ipckit.semantics._windows: the window slots as they
were built before the fast patterns were cached per window.

The fast slots' patterns are built over one block of m**k rows, and a
scan of more than one window replicates them across the window's c
blocks on every call, where _windows now reads patterns built over the
window's own rows.
"""

from __future__ import annotations

from itertools import product

from ipckit.semantics import WINDOW, _held


def fast_patterns(n, domain, k):
    """Bit-sliced values of the last k slots over one block of m**k rows
    (last slot fastest), for each of the k slots and each point."""
    m = len(domain)
    ones = (1 << m ** k) - 1
    pats = []
    for i in range(k):
        stride = m ** (k - 1 - i)  # rows one domain value is held for
        # the run of m*stride rows repeats over the block
        repeat = ones // ((1 << (m * stride)) - 1)
        pats.append(tuple(v * repeat for v in _held(n, domain, stride)))
    return tuple(pats)


def windows(n, domain, nvars):
    """(slots, rows) for each window, as _windows yields them."""
    m = len(domain)
    k = 0
    while k < nvars and m ** (k + 1) <= WINDOW:
        k += 1
    block = m ** k
    fast = fast_patterns(n, domain, k) if k else ()
    if k == nvars:  # one window holds every row
        yield fast, block
        return
    c = WINDOW // block  # values of the chunked slot per window
    ones = (1 << c * block) - 1
    repeat = ones // ((1 << block) - 1)
    fast = [[v * repeat for v in pat] for pat in fast]
    for slow in product(domain, repeat=nvars - k - 1):
        fixed = [_held(n, (v,), c * block) for v in slow]
        for a in range(0, m, c):
            values = domain[a:a + c]
            yield fixed + [_held(n, values, block)] + fast, len(values) * block
