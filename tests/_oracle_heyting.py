"""Heyting algebras built from an arbitrary lattice order: the test oracles
for the dual constructions on posets in ipckit.

- algebra_sum against poset.sum_posets (the sum of the upset algebras is
  the upset algebra of the sum);
- is_si against poset.root (an upset algebra is subdirectly irreducible
  exactly when its poset is rooted);
- algebras_isomorphic against canonical_code through heyting.dual_poset;
- check_residuation_pointwise against heyting._check_residuation (the law
  checked for every x, b and c, in O(k^3));
- check_residuation_by_downsets against heyting._check_residuation (the
  law as stated, each set an OR over the whole down-set of c);
- check_residuation_galois against heyting._check_residuation (the law as
  a Galois connection, checked along the covers of the order);
- is_valid_algebra against semantics.is_valid (a formula is valid on a
  poset exactly when it is valid in the poset's upset algebra), with an
  evaluator of its own over the algebra tables.
- upset_algebra_by_definition against heyting.upset_algebra: every table
  read off the definitions, the order by testing inclusion pair by pair.
- dual_poset_by_filters against heyting.dual_poset: the prime filters
  ordered by inclusion, each up-set built pair by pair over the primes.
- count_subalgebras_by_rounds against heyting.count_subalgebras: each
  closure recomputes every product of every pair until a round adds
  nothing.
"""

from __future__ import annotations

from ipckit.formulas import And, Bot, Or, Var, variables
from ipckit.heyting import HeytingAlgebra, dual_poset
from ipckit.poset import Poset, _bits, _transpose, canonical_code, upset_masks


def check_residuation_pointwise(a):
    """Raise ValueError unless x & b <= c iff x <= b -> c for all x, b, c:
    for each b and c, {x : x & b <= c} must be the down-set of b -> c."""
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


def check_residuation_by_downsets(a):
    """Raise ValueError unless x & b <= c iff x <= b -> c for all x, b, c,
    reading only the leq, meet and imp tables: heyting._check_residuation
    as it was before it pushed the sets up the covers of the order.

    leq must be a partial order, and that is checked first.  Then the law
    is checked as stated: for fixed b and c, the x with x & b <= c are
    the x with x & b in down(c), and they must be exactly down(b -> c).
    For each b, pre[y] is the mask of the x with x & b == y, so the first
    set is the OR of pre[y] over y in down(c).
    """
    k = a.size
    leq = a.leq
    for x, ux in enumerate(leq):
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


def check_residuation_galois(a):
    """Raise ValueError unless x & b <= c iff x <= b -> c for all x, b, c,
    reading only the leq, meet and imp tables: heyting._check_residuation
    as it was before it checked the law as stated.

    leq must be a partial order, and that is checked first.  Then fix b,
    and let f(x) = x & b and g(c) = b -> c.  The law holds for all x and c
    exactly when f and g form a Galois connection (Davey & Priestley,
    Introduction to Lattices and Order, ch. 7), that is, when
      (i) f is monotone,  (ii) g is monotone,
      (iii) f(g(c)) <= c for all c,  (iv) x <= g(f(x)) for all x.
    - The law gives (i)-(iv).  x = g(c) gives (iii), since g(c) <= g(c);
      c = f(x) gives (iv).  If x <= y, then x <= y <= g(f(y)), so
      f(x) <= f(y): (i).  If c <= d, then f(g(c)) <= c <= d, so
      g(c) <= g(d): (ii).
    - (i)-(iv) give the law.  If f(x) <= c, then x <= g(f(x)) <= g(c) by
      (iv) and (ii).  If x <= g(c), then f(x) <= f(g(c)) <= c by (i) and
      (iii).
    In a finite partial order x <= y exactly when a chain of covers leads
    from x to y, and leq is transitive, so (i) and (ii) are checked along
    the covers only.
    """
    k = a.size
    leq = a.leq
    for x, ux in enumerate(leq):
        strict = ux & ~(1 << x)
        if not ux >> x & 1 or any(leq[y] & ~strict for y in _bits(strict)):
            raise ValueError("order is not a partial order")
    order = Poset(tuple(map(str, range(k))), leq)
    covers = [(x, y) for x in range(k) for y in order.upper_covers[x]]
    meet = a.meet
    for b in range(k):
        f = [row[b] for row in meet]
        g = a.imp[b]
        for x, y in covers:
            if not (leq[f[x]] >> f[y] & 1 and leq[g[x]] >> g[y] & 1):
                raise ValueError("residuation law fails")
        for x in range(k):
            if not (leq[f[g[x]]] >> x & 1 and leq[x] >> g[f[x]] & 1):
                raise ValueError("residuation law fails")


def count_subalgebras_by_rounds(a):
    """heyting.count_subalgebras before its closure went incremental: the
    closed sets containing bottom and top, found by adding one element at
    a time to a closed set, each closure taken in rounds over all ordered
    pairs of members until a round adds nothing.  No cap."""

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


def _tables_from_order(leq, name=None):
    """Derive meet/join/imp tables from a lattice order and validate."""
    k = len(leq)
    down = [0] * k
    for a in range(k):
        for b in _bits(leq[a]):
            down[b] |= 1 << a
    full = (1 << k) - 1
    bottoms = [a for a in range(k) if leq[a] == full]
    tops = [a for a in range(k) if down[a] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise ValueError("order is not bounded")
    bottom, top = bottoms[0], tops[0]

    def unique_min(mask):
        cands = [c for c in _bits(mask) if mask & ~leq[c] == 0]
        return cands[0] if len(cands) == 1 else None

    def unique_max(mask):
        cands = [c for c in _bits(mask) if mask & ~down[c] == 0]
        return cands[0] if len(cands) == 1 else None

    meet = [[0] * k for _ in range(k)]
    join = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(k):
            m = unique_max(down[a] & down[b])
            j = unique_min(leq[a] & leq[b])
            if m is None or j is None:
                raise ValueError("order is not a lattice")
            meet[a][b] = m
            join[a][b] = j
    imp = [[0] * k for _ in range(k)]
    for b in range(k):
        for c in range(k):
            good = [a for a in range(k) if leq[meet[a][b]] >> c & 1]
            mask = 0
            for a in good:
                mask |= 1 << a
            r = unique_max(mask)
            if r is None:
                raise ValueError("meet has no residual")
            imp[b][c] = r
            # residuation: {a : a&b <= c} must be exactly the down-set of r
            if mask != down[r]:
                raise ValueError("residuation law fails")
    return HeytingAlgebra(
        tuple(leq),
        tuple(tuple(r) for r in meet),
        tuple(tuple(r) for r in join),
        tuple(tuple(r) for r in imp),
        bottom,
        top,
        name,
    )


def upset_algebra_by_definition(p):
    """The upset algebra of p with no cache and no residuation check:
    U <= V when U & ~V == 0, tested for every pair (the comprehension that
    upset_algebra replaced by an AND of the upsets holding each point),
    meets and joins by intersection and union, and U -> V the points x
    with up(x) & U inside V."""
    masks = upset_masks(p)
    pos = {m: i for i, m in enumerate(masks)}
    leq = tuple(sum(1 << j for j, mj in enumerate(masks) if mi & ~mj == 0)
                for mi in masks)
    meet = tuple(tuple(pos[mi & mj] for mj in masks) for mi in masks)
    join = tuple(tuple(pos[mi | mj] for mj in masks) for mi in masks)
    imp = tuple(tuple(pos[sum(1 << x for x in range(p.n) if p.up[x] & u & ~v == 0)]
                      for v in masks) for u in masks)
    return HeytingAlgebra(leq, meet, join, imp, pos[0], pos[p.full_mask],
                          name=f"Up({p.name})" if p.name else None)


def dual_poset_by_filters(a):
    """The dual poset as heyting.dual_poset built it before it restricted
    the reversed order: the join-primes, then for each prime x the mask of
    the primes y <= x (filter inclusion reverses the algebra order)."""
    k = a.size
    down = _transpose(a.leq, k)
    primes = []
    for x in range(k):
        if x == a.bottom:
            continue
        sup = a.bottom
        for y in _bits(down[x] & ~(1 << x)):
            sup = a.join[sup][y]
        if sup != x:
            primes.append(x)
    ups = []
    for x in primes:
        m = 0
        for j, y in enumerate(primes):
            if a.leq[y] >> x & 1:
                m |= 1 << j
        ups.append(m)
    return Poset(tuple(f"f{x}" for x in primes), tuple(ups), name=None)


def boolean_two():
    """The two-element Boolean algebra."""
    return _tables_from_order([0b11, 0b10], name="B2")


def coatoms(a: HeytingAlgebra):
    return [x for x in range(a.size) if x != a.top
            and a.leq[x] == (1 << x) | (1 << a.top)]


def is_si(a: HeytingAlgebra) -> bool:
    """Subdirect irreducibility: a unique coatom (second largest element)."""
    return len(coatoms(a)) == 1


def algebra_sum(lower: HeytingAlgebra, upper: HeytingAlgebra, name=None):
    """Stack lower below upper, identifying lower's top with upper's bottom."""
    if lower.size == 0 or upper.size == 0:
        raise ValueError("summands must be nonempty")
    kl, ku = lower.size, upper.size
    # lower keeps its indices; upper elements other than its bottom follow
    upmap = {}
    nxt = kl
    for b in range(ku):
        if b == upper.bottom:
            upmap[b] = lower.top
        else:
            upmap[b] = nxt
            nxt += 1
    k = kl + ku - 1
    leq = [0] * k
    for a in range(kl):
        for b in _bits(lower.leq[a]):
            leq[a] |= 1 << b
        for b in range(ku):
            if b != upper.bottom:
                leq[a] |= 1 << upmap[b]
    for a in range(ku):
        ia = upmap[a]
        for b in _bits(upper.leq[a]):
            leq[ia] |= 1 << upmap[b]
    # lower.top == upper.bottom got upper's row merged above; fix reflexivity
    for a in range(k):
        leq[a] |= 1 << a
    return _tables_from_order(leq, name=name)


def algebras_isomorphic(a: HeytingAlgebra, b: HeytingAlgebra) -> bool:
    """Decided through the dual posets (finite duality)."""
    if a.size != b.size:
        return False
    return canonical_code(dual_poset(a)) == canonical_code(dual_poset(b))


def is_valid_algebra(a: HeytingAlgebra, f) -> bool:
    """Validity of an intuitionistic formula in a finite Heyting algebra:
    every assignment of elements to the variables gives the top."""
    vs = sorted(variables(f))
    assign = {}

    def ev(g):
        if isinstance(g, Var):
            return assign[g.index]
        if isinstance(g, Bot):
            return a.bottom
        l, r = ev(g.left), ev(g.right)
        if isinstance(g, And):
            return a.meet[l][r]
        if isinstance(g, Or):
            return a.join[l][r]
        return a.imp[l][r]

    def rec(k):
        if k == len(vs):
            return ev(f) == a.top
        for val in range(a.size):
            assign[vs[k]] = val
            if not rec(k + 1):
                return False
        return True

    return rec(0)
