"""Finite posets: construction, structure queries, sums, canonical forms,
and isomorph-free enumeration.

Elements are named strings; the order is stored as one up-set bitmask per
element (bit j of up[i] means element i <= element j, diagonal included),
which makes comparability and upset arithmetic O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import budget as _budget
from .errors import BudgetExceeded, CycleDetected, DuplicateElement, UnknownElement


_BYTE = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


def _bits(mask):
    """Set bits of mask, ascending, as a tuple: the byte table _BYTE below
    256 (Knuth, TAOCP 4A, 7.1.3), else peeled top bit first (fewer int ops)."""
    if 0 <= mask < 256:
        return _BYTE[mask]
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    out = []
    while mask:
        out.append(i := mask.bit_length() - 1)
        mask ^= 1 << i
    out.reverse()
    return tuple(out)


def _transpose(rows, n):
    """Per i < n, the mask of the j with bit i set in rows[j]."""
    cols = [0] * n
    for j, row in enumerate(rows):
        for i in _bits(row):
            cols[i] |= 1 << j
    return cols


@dataclass(frozen=True)
class Poset:
    """Immutable finite poset.

    up[i] is the bitmask of elements j with element i <= element j
    (reflexive, so bit i is always set).
    """

    elements: tuple
    up: tuple
    name: str | None = field(default=None, compare=False)

    @property
    def n(self):
        return len(self.elements)

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def index(self, name):
        try:
            return self.elements.index(name)
        except ValueError:
            raise UnknownElement(name) from None

    # derived order data ------------------------------------------------
    #
    # The heights and topdown (one peel, _peel), height, maxima,
    # upper_covers, root_index, the widths, by_upset_size,
    # image_candidates and upsets are computed once per instance, on
    # first use.
    # down_masks is not kept, so the many candidates that canonical_code
    # sees during enumeration carry no memo.

    def down_masks(self):
        return _transpose(self.up, self.n)

    def strict_up(self, i):
        return self.up[i] & ~(1 << i)

    @cached_property
    def _peel(self):
        """The heights and topdown, from one peel: each round takes the
        points left whose strict up-set misses what is left, the maximal
        points of the rest.  So round k takes the points of height k, and
        the rounds in turn, each by index, list the points by height,
        then index.  A nonempty rest has a maximal point, so the peel ends
        with nothing left."""
        up, h, order = self.up, [0] * self.n, []
        left, k = self.full_mask, 0
        while layer := [i for i in _bits(left) if up[i] & left == 1 << i]:
            for i in layer:
                h[i] = k
                left ^= 1 << i
            order += layer
            k += 1
        return tuple(h), tuple(order)

    @property
    def _heights(self):
        return self._peel[0]

    def heights(self):
        """Longest-chain distance from the top: maximal elements get 0."""
        return list(self._heights)

    @cached_property
    def height(self):
        """The largest height, -1 for the empty poset."""
        return max(self._heights, default=-1)

    @cached_property
    def maxima(self):
        """The mask of the maximal points: the peel's first layer, the
        points of height 0."""
        return sum(1 << i for i, h in enumerate(self._heights) if h == 0)

    @property
    def topdown(self):
        """The points by height, then index: every point strictly above x
        comes before x."""
        return self._peel[1]

    @cached_property
    def upper_covers(self):
        """Per point x, the points covering x, by index: those strictly
        above x and not strictly above another point strictly above x."""
        strict = [u & ~(1 << x) for x, u in enumerate(self.up)]
        out = []
        for x in range(self.n):
            over = 0
            for y in _bits(strict[x]):
                over |= strict[y]
            out.append(_bits(strict[x] & ~over))
        return tuple(out)

    @cached_property
    def root_index(self):
        """The index of the unique minimum, or None."""
        full = self.full_mask
        return next((i for i, u in enumerate(self.up) if u == full), None)

    @cached_property
    def full_width(self):
        """The size of the largest antichain of the whole order."""
        return _max_antichain(self, self.full_mask)

    @cached_property
    def upset_widths(self):
        """Per point x, the size of the largest antichain in up(x)."""
        return tuple(_max_antichain(self, u) for u in self.up)

    @cached_property
    def by_upset_size(self):
        """The points by decreasing size of their up-sets, then index."""
        return tuple(sorted(range(self.n), key=lambda i: -self.up[i].bit_count()))

    @cached_property
    def image_candidates(self):
        """The candidate table of a p-morphism search onto this poset: per
        set S of points, as a mask, the points t with up(t) == S (t
        already in S), then those with up(t) == S + {t}, by index, each
        as (t, 1 << t, up(t))."""
        table = {u: [(t, 1 << t, u)] for t, u in enumerate(self.up)}
        for t, u in enumerate(self.up):
            table.setdefault(u & ~(1 << t), []).append((t, 1 << t, u))
        return {s: tuple(entries) for s, entries in table.items()}

    @cached_property
    def upsets(self):
        """Every upset as a mask, in (size, mask) order."""
        return tuple(iter_upset_masks(self))

    def covers(self):
        """List of (i, j) index pairs with e_j covering e_i."""
        return [(i, j) for i in range(self.n) for j in self.upper_covers[i]]

    def restrict(self, mask, name=None):
        """Induced subposet on the elements in mask (original order kept)."""
        keep = [i for i in range(self.n) if mask >> i & 1]
        pos = {i: k for k, i in enumerate(keep)}
        ups = []
        for i in keep:
            m = 0
            for j in _bits(self.up[i] & mask):
                m |= 1 << pos[j]
            ups.append(m)
        return Poset(tuple(self.elements[i] for i in keep), tuple(ups), name)

    def __getstate__(self):
        # a pickle carries the order, not the memos: the posets --jobs
        # ships back from the workers stay as small as the ones it sends
        return {"elements": self.elements, "up": self.up, "name": self.name}

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"<Poset{tag} n={self.n}>"


# construction ----------------------------------------------------------


EMPTY = Poset((), ())


def _check_distinct(elements):
    seen = set()
    for e in elements:
        if e in seen:
            raise DuplicateElement(e)
        seen.add(e)


def build_poset(elements, pairs, name=None):
    """Build a poset from element names and a < b pairs, transitively
    closed here."""
    elements = list(elements)
    _check_distinct(elements)
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in idx:
            raise UnknownElement(a)
        if b not in idx:
            raise UnknownElement(b)
        up[idx[a]] |= 1 << idx[b]
    # Warshall: after step k, up[i] holds each j reached from i by a path
    # whose inner points all have index <= k, so the last step closes up
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in _bits(up[i]):
            if j != i and up[j] >> i & 1:
                raise CycleDetected(f"{elements[i]} and {elements[j]}")
    return Poset(tuple(elements), tuple(up), name)


def stack(blocks, name=None):
    """Ordinal sum of (tag, poset) blocks, first block on top; elements
    are renamed tag.element so explicit maps can refer to them.

    The points of the blocks above a block come first, so each up-set of
    a block, shifted past them, gains all of them: u << offset | above.
    """
    els = []
    ups = []
    for tag, block in blocks:
        offset = len(els)
        above = (1 << offset) - 1
        els += [f"{tag}.{e}" for e in block.elements]
        ups += [u << offset | above for u in block.up]
    _check_distinct(els)
    return Poset(tuple(els), tuple(ups), name)


def sum_posets(upper, lower):
    """Ordinal sum: every element of lower below every element of upper;
    an empty side gives the other side unchanged."""
    if upper.n == 0:
        return lower
    if lower.n == 0:
        return upper
    return stack([("t", upper), ("b", lower)])


def root(p):
    """The unique minimum's name, or None."""
    i = p.root_index
    return None if i is None else p.elements[i]


# upsets ----------------------------------------------------------------


def iter_upset_masks(p):
    """The upsets of p as bitmasks in (size, mask) order, one size at a time.

    The upsets of size k + 1 are the u | 1 << x for u of size k and x
    outside u with every point strictly above x inside u.  A prefix costs
    only the sizes it reaches, and p gains no memo.
    """
    strict = [u & ~(1 << x) for x, u in enumerate(p.up)]
    full = p.full_mask
    level = [0]
    while level:
        yield from level
        nxt = set()
        for u in level:
            rest = m = full & ~u
            while m:
                low = m & -m
                m ^= low
                if not strict[low.bit_length() - 1] & rest:
                    nxt.add(u | low)
        level = sorted(nxt)


def upset_masks(p):
    """All upward-closed subsets as bitmasks, sorted by (size, mask), as a
    new list of p.upsets."""
    return list(p.upsets)


# width -----------------------------------------------------------------


def _max_antichain(p, mask):
    """Size of the largest antichain inside mask: |mask| minus a largest
    matching of each point x to a point y > x, both in mask.

    By Dilworth (Ann. Math. 51, 1950) the largest antichain has as many
    points as the fewest chains that cover mask.  By Fulkerson (Proc. AMS
    7, 1956) that is |mask| minus a largest matching in the graph with
    an edge from x on the left to y on the right when x < y: the matched
    pairs join into chains, a chain of k points using k - 1 of them, and
    the order is transitive, so each chain of a cover gives such pairs.

    A greedy pass matches each point, in index order, to the least point
    strictly above it that is still free.  Augmenting paths (Kuhn's
    search) then run from each left point that the pass left unmatched,
    once each; a maximal point of mask has no edge, so it is not queued.
    An augmentation keeps every matched point matched.  A left point with
    no augmenting path at its turn gains none later: say the augmentation
    along a path Q leaves one, R, from it.  R must meet Q, else R was
    augmenting before Q.  R up to its first point on Q, then Q on to the
    free end that keeps the edges alternating, was augmenting before Q.
    So at the end no unmatched left point has an augmenting path, and by
    Berge's theorem (PNAS 43, 1957) the matching is maximum."""
    up = p.up
    owner = {}      # right point, as a bit, -> the left point matched to it
    free, tries = mask, []
    for x in _bits(mask):
        above = up[x] & mask & ~(1 << x)
        if m := above & free:
            y = m & -m
            free ^= y
            owner[y] = x
        elif above:
            tries.append(x)
    for x in tries:
        _augment(up, mask, owner, x, 0)
    return mask.bit_count() - len(owner)


def _augment(up, mask, owner, x, seen):
    """Kuhn's search for an augmenting path from left point x through the
    right points of mask not in seen.  On success it flips the path in
    owner and returns None; else it returns seen with every right point
    it reached.  A matched left point is entered only through the right
    point it owns, which is then in seen, so each is entered once."""
    while avail := up[x] & mask & ~seen & ~(1 << x):
        y = avail & -avail
        seen |= y
        if y not in owner or (seen := _augment(up, mask, owner, owner[y], seen)) is None:
            owner[y] = x
            return None
    return seen


def width(p):
    """Width per principal upsets; the empty poset has width 0."""
    return max(p.upset_widths, default=0)


# canonical form ---------------------------------------------------------


def _refined_colors(p, down, t):
    """Colour refinement: start from each point's (up-set size, down-set
    size), then split the colours by the sorted colours strictly above and
    strictly below each point, until a round splits none or the colours
    number t, p's twin classes (_twin_keys).  The colours are ranks, and
    an automorphism of p keeps them.

    Twins have equal start colours, and equal signatures in every round,
    since their strict up-sets and down-sets are equal: so there are at
    most t colours, and with t each colour class is a twin class.  The
    next round's signatures would then lead with the colour, and be equal
    inside each class, so they would rank as the colours do and reproduce
    them.
    """
    n = p.n
    colors = [(p.up[i].bit_count(), down[i].bit_count()) for i in range(n)]
    rank = {c: k for k, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    if len(rank) < t:
        above = [_bits(p.strict_up(i)) for i in range(n)]
        below = [_bits(down[i] & ~(1 << i)) for i in range(n)]
        while len(rank) < t:
            sigs = [(colors[i], tuple(sorted(colors[j] for j in above[i])),
                     tuple(sorted(colors[j] for j in below[i]))) for i in range(n)]
            rank = {s: k for k, s in enumerate(sorted(set(sigs)))}
            new = [rank[s] for s in sigs]
            if new == colors:
                break
            colors = new
    return colors


def _twin_keys(p, down):
    """Per point x, its strict up-set and strict down-set.  Points with
    equal keys are twins: neither lies above the other, and every other
    point lies above (below) both or neither, so swapping them is an
    automorphism of p."""
    return [(p.strict_up(x), d & ~(1 << x)) for x, d in enumerate(down)]


def _min_rows(p, colors, down, twin, t):
    """The colour sequence and the least rows over the orders that list
    the points by colour: row k holds, per earlier point u, the bits
    (v <= u, u <= v) of the k-th point v.  twin holds p's twin keys
    (_twin_keys), and t counts their classes.

    When the colours number t, each colour class is a twin class
    (_refined_colors), so any two such orders differ by a permutation
    inside the classes, a product of twin swaps: an automorphism, which
    keeps every row.  The rows of the order by colour, then index, are
    then returned with no walk.  Otherwise one depth-first walk keeps
    best, the least rows of the leaves so far; it starts with none, so
    its first leaf, each place's first free point, sets it.  A prefix is
    tight when its rows begin best, and a tight prefix is cut at a row
    above best's.  rec returns True once its subtree has replaced best;
    each prefix of the new best is then tight, so the caller's next
    candidates are compared with it.  Each replacement is smaller, and no
    cut leaf is (a point whose twin was tried at the same place has the
    swap's images of the twin's leaves), so best ends as the least rows,
    which are unique.
    """
    n = p.n
    up = p.up
    color_seq = sorted(colors)
    by_color = {}
    for i in range(n):
        by_color.setdefault(colors[i], []).append(i)

    def row_for(v, order):
        uv = up[v]
        dv = down[v]
        r = 0
        for u in order:
            r = r << 2 | (uv >> u & 1) << 1 | dv >> u & 1
        return r

    if len(by_color) == t:
        order = [v for c in range(t) for v in by_color[c]]
        return color_seq, tuple(row_for(v, order[:k]) for k, v in enumerate(order))

    best = None
    order, rows = [], []

    def rec(k, used, tight):
        nonlocal best
        if k == n:
            if not tight:
                best = list(rows)
            return not tight
        improved = False
        tried = set()  # the twin keys of the points tried here
        for v in by_color[color_seq[k]]:
            if used >> v & 1 or twin[v] in tried:
                continue
            tried.add(twin[v])
            r = row_for(v, order)
            if tight and r > best[k]:
                continue
            order.append(v)
            rows.append(r)
            if rec(k + 1, used | 1 << v, tight and r == best[k]):
                improved = tight = True
            order.pop()
            rows.pop()
        return improved

    rec(0, 0, False)
    return color_seq, tuple(best)


@lru_cache(maxsize=None)
def canonical_code(p):
    """Byte string equal for two posets iff they are order-isomorphic.

    The code is the colour sequence and the least rows of _min_rows, over
    the colours of _refined_colors.  Both stop at p's t twin classes,
    counted here once: refinement once the colours number t, and the
    row search, with no walk, when they do.

    cache bound: one code per distinct poset coded (equal posets share an
    entry): the classes enumerated up to the largest size asked for, and
    the instances and quotients the scenarios build at their parameters.
    """
    if p.n == 0:
        return b"P0"
    down = p.down_masks()
    twin = _twin_keys(p, down)
    t = len(set(twin))
    colors = _refined_colors(p, down, t)
    seq, rows = _min_rows(p, colors, down, twin, t)
    body = ",".join(str(c) for c in seq) + "|" + ",".join(format(r, "x") for r in rows)
    return f"P{p.n}:{body}".encode()


def are_isomorphic(p, q):
    return canonical_code(p) == canonical_code(q)


# enumeration ------------------------------------------------------------


def enumerate_posets(n):
    """One representative per isomorphism class, sorted by canonical code,
    as _level(n) keeps them.

    Each poset of n - 1 points, q, gains a new maximal point t = e{n-1}
    above exactly D, for each downset D of q in mask order, and the first
    candidate of each code is kept.  The walk takes the q in order and,
    per q, the D in mask order.  Two rules skip a candidate before it is
    built or coded, and keep the same representatives.

    Orbit: D is skipped when it holds a point v of q but not u, the next
    twin of v below it (_twin_keys).  Orbit pruning is sound under any
    subgroup of Aut(q) (McKay 1998); this one is generated by the swaps
    of twins, which _min_rows reads too.

    - An automorphism a of q, extended by the new point to itself, is an
      isomorphism from the candidate for D onto the candidate for a(D),
      since a point x lies below the new point in one iff a(x) does in
      the other.
    - The swap a of u and v is one, and a(D) = D - {v} + {u} is a
      downset with a smaller mask, so the skipped candidate has an
      isomorphic one before it from the same q.
    - The downsets kept are those holding, in each twin class, its lowest
      points: one per orbit of the group the swaps generate.

    Sibling: q is a representative, so it was built as p + s, its parent
    p with a maximal point s = e{n-2} added; let K be the code of p's
    candidate for D.  The candidate C = q + t for D is skipped when s lies
    outside D and K sorts before canonical_code(q).

    - s is maximal in C: q added it as a maximal point, and t is not
      above it, since s lies outside D.
    - C less s, with t renamed e{n-2}, is p's candidate for D: D is a
      downset of q that misses s, so it is a downset of p, and t lies
      above exactly D.
    - The representatives of n - 1 points are sorted by code, so a code
      K below q's code belongs to a representative r that comes before
      q.  An isomorphism from C less s onto r maps the downset below s to
      a downset E of r, and r's candidate for E is isomorphic to C, since
      s is maximal in C.  So C has an isomorphic candidate from an earlier
      parent.
    - A K equal to q's code is coded: C less s is then isomorphic to q,
      and C's class may first be met at q.  So is an unknown K (p's
      candidate for D was itself skipped, or q has no s, when n = 1).

    Every skip, by orbit or by sibling, points to an isomorphic candidate
    strictly earlier in the walk, so the first candidate of each class is
    never skipped: it is coded and kept, as with no skipping.  By
    induction on n, the representatives and their parents are those of
    the walk with no skipping at every size.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    return _level(n)[0]


@lru_cache(maxsize=None)
def _level(n):
    """enumerate_posets(n)'s representatives, unchecked, their codes, and
    per representative its parent's candidate codes by downset mask, which
    the sibling rule reads at size n + 1.

    The representatives from one parent share its dict, which is what
    the rule reads as K (proof in enumerate_posets).  It holds every
    downset of the parent, since a child may ask for any: a downset the
    orbit rule skipped has the code of its swap's image, met before it,
    whose candidate is isomorphic, and a candidate the sibling rule
    skipped has None, its code unknown without coding it, so its
    children's candidates for that downset are coded.  The empty poset
    has an empty dict.

    cache bound: one triple per size up to the largest asked for.
    """
    if n == 0:
        return (EMPTY,), (b"P0",), ({},)
    els = tuple(f"e{i}" for i in range(n))
    top = 1 << (n - 1)
    last = top >> 1  # the bit of q's newest point s; 0 when n = 1, q empty
    seen = {}
    for q, own, sib in zip(*_level(n - 1)):
        # (u + v, v) as masks, per point v of q and u its next twin below
        lower, swaps = {}, []
        for v, key in enumerate(_twin_keys(q, q.down_masks())):
            if key in lower:
                swaps.append((1 << lower[key] | 1 << v, 1 << v))
            lower[key] = v
        codes = {}  # q's candidate codes by downset mask
        # the downsets of q, complements of its upsets, in mask order
        for dmask in sorted(q.full_mask ^ u for u in q.upsets):
            swap = next((pair for pair, v in swaps if dmask & pair == v), 0)
            if swap:
                codes[dmask] = codes[dmask ^ swap]
                continue
            known = None if dmask & last else sib.get(dmask)
            if known is not None and known < own:
                code = None
            else:
                # adjoin a new maximal element above exactly dmask
                ups = [m | top if dmask >> i & 1 else m for i, m in enumerate(q.up)]
                ups.append(top)
                cand = Poset(els, tuple(ups))
                code = canonical_code(cand)
                if code not in seen:
                    seen[code] = cand, codes
            codes[dmask] = code
    order = tuple(sorted(seen))
    return tuple(seen[c][0] for c in order), order, tuple(seen[c][1] for c in order)


def enumerate_rooted(size, max_width=None, cap=None):
    """Rooted posets of the given size, one per isomorphism class, as a
    new list: each enumerate_posets(size - 1) representative q, in order,
    with a root added below all of q as the last point e{size-1}.

    Up to 11 points (the default cap is 8) this is canonical-code order.
    Let q have n points and code P{n}:seq|rows.  The rooted poset's code
    is P{n+1}:seq,d|rows,R, with d = max(seq) + 1 and R the hex of "10"
    repeated n times, fixed per size (proof in tests/_oracle_poset.py).
    The representatives are sorted by code, and while q has at most 10
    points the suffixes keep every comparison:

    - every colour rank is one digit, so all of the colour sequences
      have one length, 2n - 1: two that differ do so before ",d", and
      two equal ones have equal d;
    - under equal sequences the row strings, each of n rows, decide.  Two
      that differ at a place both reach still differ there; when one is a
      proper prefix of the other, the longer holds every comma of the
      shorter and no more, so it goes on with a hex digit, and the
      shorter goes on with ",", which sorts below every hex digit, as its
      end did.

    The arguments are checked on every call; the posets come from one
    cached tuple per (size, width bound), so every caller in the process
    shares them and their memos.  A rooted poset of n points has width at
    most max(1, n - 1), so a bound of size or more is stored as no bound.

    cache bound: per size asked for, one tuple per width bound below the
    size asked for, and one with no bound.
    """
    cap = _budget.DEFAULT_ENUM_CAP if cap is None else cap
    if size < 1:
        raise ValueError("size must be >= 1")
    if size > cap:
        raise BudgetExceeded(f"size {size} exceeds enumeration cap {cap}")
    if max_width is not None and max_width >= size:
        max_width = None
    return list(_rooted(size, max_width))


@lru_cache(maxsize=None)
def _rooted(size, max_width):
    """enumerate_rooted's posets, unchecked (cache bound: see there).  No
    rooted poset is coded: they keep their parents' order."""
    els = tuple(f"e{i}" for i in range(size))
    full = (1 << size) - 1
    # the root is comparable with every point, so the rooted poset's
    # width is q's (1 when q is empty)
    return tuple(Poset(els, q.up + (full,)) for q in enumerate_posets(size - 1)
                 if max_width is None or max(1, q.full_width) <= max_width)
