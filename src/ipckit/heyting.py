"""Finite Heyting algebras with explicit operation tables.

Carriers are index ranges with a bitmask order relation; join, meet and
the residual -> are tables.  Every upset_algebra call checks the
residuation law a&b <= c iff a <= b->c against its tables, as stated: for
each b and c, the a with a&b below c form the down-set of b->c.  That set
is gathered up the covers of the order, one linear extension per b, and
each algebra transposes its order into down-sets once (``down``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import budget as _budget
from .errors import BudgetExceeded
from .poset import Poset, _bits, _transpose


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

    @cached_property
    def down(self):
        """down[a] = bitmask of b with b <= a: leq transposed, once."""
        return tuple(_transpose(self.leq, self.size))

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
    masks = p.upsets
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
    meet = tuple(tuple([pos[mi & mj] for mj in masks]) for mi in masks)
    join = tuple(tuple([pos[mi | mj] for mj in masks]) for mi in masks)
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
    reading only the leq, meet and imp tables and the down-sets of leq.

    leq must be a partial order, and that is checked first; the same pass
    finds the upper covers of each x: its strict up-set less the strict
    up-sets of the points in it.  Then the law is checked as stated: for
    fixed b and c, the x with x & b <= c are the x with x & b in down(c),
    and they must be exactly down(b -> c).  Per b, acc[y] starts as the
    mask of the x with x & b == y, and the first set is the OR of those
    masks over down(c).  In a finite poset down(c) is {c} together with
    down(y) for each lower cover y of c, since a chain of covers leads
    from any y < c up to c.  So the elements are visited in a linear
    extension, by decreasing |leq[x]| (x < y makes leq[y] a proper subset
    of leq[x]), and each c, once reached, ORs its acc into each upper
    cover: every lower cover of c comes before c, so by induction along
    the extension acc[c] is then the OR over down(c).
    """
    k = a.size
    leq = a.leq
    covers = []
    for x, ux in enumerate(leq):
        # reflexive, and each y strictly above x has its strict up-set
        # inside that of x (transitive) without x (antisymmetric)
        strict = ux & ~(1 << x)
        above = 0
        for y in _bits(strict):
            above |= leq[y] & ~(1 << y)
        if not ux >> x & 1 or above & ~strict:
            raise ValueError("order is not a partial order")
        covers.append(_bits(strict & ~above))
    order = sorted(range(k), key=lambda x: -leq[x].bit_count())
    down = a.down
    for b in range(k):
        acc = [0] * k
        for x, row in enumerate(a.meet):
            acc[row[b]] |= 1 << x
        imp = a.imp[b]
        for c in order:
            mask = acc[c]
            if mask != down[imp[c]]:
                raise ValueError("residuation law fails")
            for d in covers[c]:
                acc[d] |= mask


def dual_poset(a: HeytingAlgebra) -> Poset:
    """Prime filters ordered by inclusion.

    Every filter of a finite lattice is principal, and the filter of a is
    prime exactly when a is join-prime, i.e. a is not the join of the
    elements strictly below it (distributivity holds here).  Filter
    inclusion reverses the algebra order, so the dual is the reversed
    order restricted to the join-primes.
    """
    k = a.size
    down = a.down
    primes = 0
    for x in range(k):
        if x == a.bottom:
            continue
        sup = a.bottom
        for y in _bits(down[x] & ~(1 << x)):
            sup = a.join[sup][y]
        if sup != x:
            primes |= 1 << x
    return Poset(tuple(f"f{x}" for x in range(k)), down).restrict(primes)


def count_quotients(a: HeytingAlgebra) -> int:
    """Congruences correspond to filters, counted here as the nonempty
    upsets of the algebra's order that are closed under meet."""
    if a.size > _budget.DEFAULT_SUBALG_CAP:
        raise BudgetExceeded(
            f"carrier {a.size} exceeds quotient cap {_budget.DEFAULT_SUBALG_CAP}"
        )
    order = Poset(tuple(str(x) for x in range(a.size)), a.leq)
    count = 0
    for u in order.upsets:
        xs = _bits(u)
        if xs and all(u >> a.meet[x][y] & 1 for x in xs for y in xs):
            count += 1
    return count


def count_subalgebras(a: HeytingAlgebra) -> int:
    """Subsets containing 0 and 1 closed under meet, join and ->."""
    if a.size > _budget.DEFAULT_SUBALG_CAP:
        raise BudgetExceeded(
            f"carrier {a.size} exceeds subalgebra cap {_budget.DEFAULT_SUBALG_CAP}")

    meet, join, imp = a.meet, a.join, a.imp

    def closure(mask, x):
        """The least closed superset of mask | {x}, for a closed mask.
        Each element taken from work is paired with every member present
        then, itself included, both ways round (the tables need not be
        commutative), so each pair of members not both in mask is met
        when the later of the two is taken."""
        mask |= 1 << x
        work = [x]
        while work:
            x = work.pop()
            mx, jx, ix = meet[x], join[x], imp[x]
            new = 0
            for y in _bits(mask):
                new |= (1 << mx[y] | 1 << meet[y][x] | 1 << jx[y] | 1 << join[y][x]
                        | 1 << ix[y] | 1 << imp[y][x])
            new &= ~mask
            mask |= new
            work.extend(_bits(new))
        return mask

    base = closure(closure(0, a.bottom), a.top)
    found = {base}
    queue = [base]
    while queue:
        cur = queue.pop()
        for x in range(a.size):
            if cur >> x & 1:
                continue
            nxt = closure(cur, x)
            if nxt not in found:
                found.add(nxt)
                queue.append(nxt)
    return len(found)
