"""Finite Heyting algebras with explicit operation tables.

Carriers are index ranges with a bitmask order relation; join, meet and
the residual -> are tables.  Every upset_algebra call checks the
residuation law a&b <= c iff a <= b->c against its tables, as stated: for
each b and c, the a with a&b below c form the down-set of b->c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import budget as _budget
from .errors import BudgetExceeded
from .poset import Poset, upset_masks, _bits, _transpose


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
    U -> V = the points whose up-set meets U inside V.

    A point x lies outside U -> V exactly when some y >= x lies in U - V,
    so U -> V = X - down(U - V), where down(S) is the set of points below
    some point of S.  down(S) is computed once per mask S within a call.
    The residuation law is checked against the finished tables.

    cache bound: one algebra per distinct poset (equal posets share an
    entry), and the posets are those enumerated up to the sizes asked for.
    """
    masks = upset_masks(p)
    if len(masks) > _budget.DEFAULT_ALGEBRA_CAP:
        raise BudgetExceeded(
            f"{len(masks)} upsets exceeds algebra cap {_budget.DEFAULT_ALGEBRA_CAP}")
    pos = {m: i for i, m in enumerate(masks)}
    # leq[i], the upsets containing masks[i]: the AND of holding[x] over x in it
    holding = _transpose(masks, p.n)
    leq = [(1 << len(masks)) - 1] * len(masks)
    for i, m in enumerate(masks):
        for x in _bits(m):
            leq[i] &= holding[x]
    meet = tuple(tuple(pos[mi & mj] for mj in masks) for mi in masks)
    join = tuple(tuple(pos[mi | mj] for mj in masks) for mi in masks)
    full = p.full_mask
    down = p.down_masks()
    below = {}
    imp = []
    for u in masks:
        row = []
        for v in masks:
            s = u & ~v
            d = below.get(s)
            if d is None:
                d = 0
                for y in _bits(s):
                    d |= down[y]
                below[s] = d
            row.append(pos[full ^ d])
        imp.append(tuple(row))
    alg = HeytingAlgebra(
        tuple(leq), meet, join, tuple(imp), pos[0], pos[full],
        name=f"Up({p.name})" if p.name else None,
    )
    _check_residuation(alg)
    return alg


def _check_residuation(a):
    """Raise ValueError unless x & b <= c iff x <= b -> c for all x, b, c,
    reading only the leq, meet and imp tables.

    leq must be a partial order, and that is checked first.  Then the law
    is checked as stated: for fixed b and c, the x with x & b <= c are
    the x with x & b in down(c), and they must be exactly down(b -> c).
    For each b, pre[y] is the mask of the x with x & b == y, so the first
    set is the OR of pre[y] over y in down(c).
    """
    k = a.size
    leq = a.leq
    for x, ux in enumerate(leq):
        # reflexive, and each y strictly above x has its up-set inside
        # that of x (transitive) without x (antisymmetric)
        strict = ux & ~(1 << x)
        if not ux >> x & 1 or any(leq[y] & ~strict for y in _bits(strict)):
            raise ValueError("order is not a partial order")
    down = _transpose(leq, k)
    below = [_bits(d) for d in down]
    for b in range(k):
        pre = [0] * k
        for x, row in enumerate(a.meet):
            pre[row[b]] |= 1 << x
        for c, r in enumerate(a.imp[b]):
            mask = 0
            for y in below[c]:
                mask |= pre[y]
            if mask != down[r]:
                raise ValueError("residuation law fails")


def dual_poset(a: HeytingAlgebra) -> Poset:
    """Prime filters ordered by inclusion.

    Every filter of a finite lattice is principal, and the filter of a is
    prime exactly when a is join-prime, i.e. a is not the join of the
    elements strictly below it (distributivity holds here).  Filter
    inclusion reverses the algebra order, so the dual is the reversed
    order restricted to the join-primes.
    """
    k = a.size
    down = _transpose(a.leq, k)
    primes = 0
    for x in range(k):
        if x == a.bottom:
            continue
        sup = a.bottom
        for y in _bits(down[x] & ~(1 << x)):
            sup = a.join[sup][y]
        if sup != x:
            primes |= 1 << x
    return Poset(tuple(f"f{x}" for x in range(k)), tuple(down)).restrict(primes)


def count_quotients(a: HeytingAlgebra) -> int:
    """Congruences correspond to filters, counted here as the nonempty
    upsets of the algebra's order that are closed under meet."""
    if a.size > _budget.DEFAULT_SUBALG_CAP:
        raise BudgetExceeded(
            f"carrier {a.size} exceeds quotient cap {_budget.DEFAULT_SUBALG_CAP}"
        )
    order = Poset(tuple(str(x) for x in range(a.size)), a.leq)
    count = 0
    for u in upset_masks(order):
        xs = _bits(u)
        if xs and all(u >> a.meet[x][y] & 1 for x in xs for y in xs):
            count += 1
    return count


def count_subalgebras(a: HeytingAlgebra) -> int:
    """Subsets containing 0 and 1 closed under meet, join and ->."""
    if a.size > _budget.DEFAULT_SUBALG_CAP:
        raise BudgetExceeded(
            f"carrier {a.size} exceeds subalgebra cap {_budget.DEFAULT_SUBALG_CAP}")

    def closure(mask):
        while True:
            new = mask
            xs = _bits(mask)
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
