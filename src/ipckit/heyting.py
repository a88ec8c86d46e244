"""Finite Heyting algebras with explicit operation tables.

Carriers are index ranges with a bitmask order relation; join, meet and
the residual -> are tables.  The residuation law a&b <= c iff a <= b->c
is checked exhaustively whenever an algebra is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import budget as _budget
from .errors import BudgetExceeded
from .poset import Poset, upset_masks, _bits


@dataclass(frozen=True)
class HeytingAlgebra:
    leq: tuple          # leq[a] = bitmask of b with a <= b
    meet: tuple         # tuples of tuples
    join: tuple
    imp: tuple
    bottom: int
    top: int
    name: str | None = field(default=None, compare=False)

    @property
    def size(self):
        return len(self.leq)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<HeytingAlgebra{tag} size={self.size}>"


@lru_cache(maxsize=None)
def upset_algebra(p: Poset) -> HeytingAlgebra:
    """The algebra of upsets of p: joins are unions, meets intersections,
    U -> V = the points whose up-set meets U inside V."""
    masks = upset_masks(p, cap=p.n)
    if len(masks) > _budget.DEFAULT_ALGEBRA_CAP:
        raise BudgetExceeded(
            f"{len(masks)} upsets exceeds algebra cap {_budget.DEFAULT_ALGEBRA_CAP}")
    pos = {m: i for i, m in enumerate(masks)}
    k = len(masks)
    leq = [0] * k
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if mi & ~mj == 0:
                leq[i] |= 1 << j
    meet = [[pos[masks[i] & masks[j]] for j in range(k)] for i in range(k)]
    join = [[pos[masks[i] | masks[j]] for j in range(k)] for i in range(k)]
    imp = [[0] * k for _ in range(k)]
    for i, u in enumerate(masks):
        for j, v in enumerate(masks):
            w = 0
            for x in range(p.n):
                if p.up[x] & u & ~v == 0:
                    w |= 1 << x
            imp[i][j] = pos[w]
    alg = HeytingAlgebra(
        tuple(leq),
        tuple(tuple(r) for r in meet),
        tuple(tuple(r) for r in join),
        tuple(tuple(r) for r in imp),
        pos[0],
        pos[p.full_mask],
        name=f"Up({p.name})" if p.name else None,
    )
    _check_residuation(alg)
    return alg


def _check_residuation(a):
    k = a.size
    down = [0] * k
    for x in range(k):
        for y in _bits(a.leq[x]):
            down[y] |= 1 << x
    for b in range(k):
        for c in range(k):
            r = a.imp[b][c]
            mask = 0
            for x in range(k):
                if a.leq[a.meet[x][b]] >> c & 1:
                    mask |= 1 << x
            if mask != down[r]:
                raise ValueError("residuation law fails")


def dual_poset(a: HeytingAlgebra) -> Poset:
    """Prime filters ordered by inclusion.

    Every filter of a finite lattice is principal, and the filter of a is
    prime exactly when a is join-prime, i.e. a is not the join of the
    elements strictly below it (distributivity holds here).
    """
    k = a.size
    down = [0] * k
    for x in range(k):
        for y in _bits(a.leq[x]):
            down[y] |= 1 << x
    primes = []
    for x in range(k):
        if x == a.bottom:
            continue
        sup = a.bottom
        for y in _bits(down[x] & ~(1 << x)):
            sup = a.join[sup][y]
        if sup != x:
            primes.append(x)
    # filter inclusion reverses the algebra order
    els = tuple(f"f{x}" for x in primes)
    ups = []
    for x in primes:
        m = 0
        for j, y in enumerate(primes):
            if a.leq[y] >> x & 1:
                m |= 1 << j
        ups.append(m)
    return Poset(els, tuple(ups), name=None)


def count_quotients(a: HeytingAlgebra) -> int:
    """Congruences correspond to filters, counted here as the nonempty
    upsets of the algebra's order that are closed under meet."""
    if a.size > _budget.DEFAULT_SUBALG_CAP:
        raise BudgetExceeded(
            f"carrier {a.size} exceeds quotient cap {_budget.DEFAULT_SUBALG_CAP}"
        )
    order = Poset(tuple(str(x) for x in range(a.size)), a.leq)
    count = 0
    for u in upset_masks(order, cap=a.size):
        xs = list(_bits(u))
        if xs and all(u >> a.meet[x][y] & 1 for x in xs for y in xs):
            count += 1
    return count


def count_subalgebras(a: HeytingAlgebra, cap: int | None = None) -> int:
    """Subsets containing 0 and 1 closed under meet, join and ->."""
    cap = _budget.DEFAULT_SUBALG_CAP if cap is None else cap
    if a.size > cap:
        raise BudgetExceeded(f"carrier {a.size} exceeds subalgebra cap {cap}")

    def closure(mask):
        while True:
            new = mask
            xs = list(_bits(mask))
            for x in xs:
                for y in xs:
                    new |= 1 << a.meet[x][y]
                    new |= 1 << a.join[x][y]
                    new |= 1 << a.imp[x][y]
            if new == mask:
                return mask
            mask = new

    base = closure(1 << a.bottom | 1 << a.top)
    found = {base}
    queue = [base]
    while queue:
        cur = queue.pop()
        for x in range(a.size):
            if cur >> x & 1:
                continue
            nxt = closure(cur | 1 << x)
            if nxt not in found:
                found.add(nxt)
                queue.append(nxt)
    return len(found)
