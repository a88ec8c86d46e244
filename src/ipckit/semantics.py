"""Validity on posets, read as intuitionistic or as modal frames.

Intuitionistic truth sets are upsets and evaluation is the standard
recursion; a poset read as a reflexive-transitive frame interprets box
as truth everywhere above and implication as material.  Validity scans
every valuation (upsets per variable in the intuitionistic case,
arbitrary subsets in the modal case) with a work meter charged one unit
per valuation row.

A scan reuses what does not depend on the valuation rows: each formula is
compiled once into a ScanPlan, in a bounded cache keyed by the formula, and
each domain's window patterns once, in a bounded cache keyed by the
domain and the window.  The order data a scan reads, its top-down order,
covers and upsets, are the poset's own memos.

A plan is the formula's own DAG: its distinct subformulas, interned, each
with its variables renamed to their slots, so a node is one object across
formulas, and evaluation dispatches on the node's type.  Inside a
shared_node_values(p) block, one-window scans of p evaluate each distinct
node once and reuse its value until the block ends; each formula is
still scanned by its own call, in its own row order, under its own limit
and charge, so statuses and work are those of scans that share nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product

from .budget import WorkMeter
from .errors import BudgetExceeded, NotIntuitionistic
from .formulas import And, Bot, Box, Formula, Imp, Or, Var, variables
from .poset import Poset, _bits, iter_upset_masks

# most valuation rows one bit-sliced evaluation covers
WINDOW = 4096


def compile_formula(f, slot_of):
    """The distinct subformulas of f, children first and f last, each with
    every variable renamed to its slot (slot_of maps variable index to
    slot): Var(slot), BOT, Box(child) or And/Or/Imp(left, right) over the
    renamed children.

    Formulas are interned, so equal subformulas of two formulas with the
    same slots are one node object.  Renaming is injective, so distinct
    subformulas of f give distinct nodes.
    """
    renamed = {}

    def walk(g):
        node = renamed.get(g)
        if node is None:
            kind = type(g)
            if kind is Var:
                node = Var(slot_of[g.index])
            elif kind is Bot:
                node = g
            elif kind is Box:
                node = Box(walk(g.inner))
            else:
                node = kind(walk(g.left), walk(g.right))
            renamed[g] = node
        return node

    walk(f)
    return tuple(renamed.values())


@dataclass(frozen=True)
class ScanPlan:
    """A formula compiled for scanning: its distinct slot-renamed
    subformulas, children first and the formula last (see
    compile_formula), over one slot per variable, slots numbered in the
    order of vars (the formula's variable indices, sorted), and whether
    the formula has a box."""

    nodes: tuple
    vars: tuple
    modal: bool

    @property
    def nvars(self):
        return len(self.vars)


@lru_cache(maxsize=1024)
def scan_plan(f):
    """The ScanPlan of formula f, compiled once per formula (cache bound:
    1024 formulas)."""
    vs = tuple(sorted(variables(f)))
    nodes = compile_formula(f, {v: i for i, v in enumerate(vs)})
    return ScanPlan(nodes, vs, any(type(g) is Box for g in nodes))


def _upset_domain(p, limit):
    """The upsets of p in (size, mask) order, or under a row limit enough
    of them to decide the scan.

    With slot 0 slowest, a row r below the limit has the digits
    (0, ..., 0, r) in any base above the limit, so it reads only domain
    values below the limit.  The first limit + 1 upsets therefore give the
    same first limit rows as the full domain, and at least limit + 1 rows
    in all, so the scan ends as the full one does.  A complete domain is
    p.upsets; a prefix is never kept.
    """
    if limit is None or 1 << p.n <= limit + 1:
        return p.upsets
    return tuple(islice(iter_upset_masks(p), max(limit, 0) + 1))


def _evaluate(nodes, slots, p, ones, memo, modal):
    """Bit-sliced truth of a plan's nodes at every point.

    slots[s][x] is the truth of slot s at point x over a window of
    valuation rows, one bit per row, and ones has every row's bit set.
    Returns the last node's truth at each point in the same form.  The
    ``[]`` case, and the ``->`` case of an intuitionistic scan, hold at x
    in the rows where a local test holds everywhere in up(x): the local
    misses are ORed down the covers of p in one top-down pass.  In a
    modal scan (modal set) ``->`` is material, read point by point.

    memo maps nodes to values already computed over these same slots and
    this same order; the nodes computed here are added to it, and a node
    reads its children's values there.
    """
    order, covers = p.topdown, p.upper_covers
    for node in nodes:
        if node in memo:
            continue
        kind = type(node)
        if kind is Var:
            v = slots[node.index]
        elif kind is Bot:
            v = [0] * p.n
        elif kind is And:
            v = [u & w for u, w in zip(memo[node.left], memo[node.right])]
        elif kind is Or:
            v = [u | w for u, w in zip(memo[node.left], memo[node.right])]
        elif kind is Imp and modal:
            v = [ones ^ (u & ~w) for u, w in zip(memo[node.left], memo[node.right])]
        else:
            if kind is Imp:
                miss = [u & ~w for u, w in zip(memo[node.left], memo[node.right])]
            else:  # Box
                miss = [ones ^ u for u in memo[node.inner]]
            for x in order:
                m = miss[x]
                for y in covers[x]:
                    m |= miss[y]
                miss[x] = m
            v = [ones ^ m for m in miss]
        memo[node] = v
    return memo[nodes[-1]]


def _held(n, values, block):
    """Bit-sliced values of a slot that holds each of values in turn for
    block rows, for each point."""
    run = (1 << block) - 1
    per_point = [0] * n
    for j, d in enumerate(values):
        for x in _bits(d):
            per_point[x] |= run << (j * block)
    return per_point


@lru_cache(maxsize=512)
def _fast_patterns(n, domain, k, rows):
    """Bit-sliced values of the last k slots over a window of rows rows, a
    whole number of blocks of m**k rows (last slot fastest), for each of
    the k slots and each point.  Built once per domain (a tuple or range),
    k and rows (cache bound: 512 entries)."""
    m = len(domain)
    ones = (1 << rows) - 1
    pats = []
    for i in range(k):
        stride = m ** (k - 1 - i)  # rows one domain value is held for
        # the run of m*stride rows repeats over the window
        repeat = ones // ((1 << (m * stride)) - 1)
        pats.append(tuple(v * repeat for v in _held(n, domain, stride)))
    return tuple(pats)


def _windows(n, domain, nvars):
    """(slots, rows) for each window of at most WINDOW rows, in row order.

    The last k slots are fast: each window holds whole blocks of their
    m**k rows.  The slot before them steps through a chunk of its domain
    within the window, and the slower slots are fixed across it.  One
    window holds every row exactly when m**nvars <= WINDOW.
    """
    m = len(domain)
    k = 0
    while k < nvars and m ** (k + 1) <= WINDOW:
        k += 1
    block = m ** k
    c = WINDOW // block if k < nvars else 1  # chunked-slot values per window
    # k = 0 needs no patterns, and skipping it keeps a domain of more than
    # WINDOW values out of the cache
    fast = _fast_patterns(n, domain, k, c * block) if k else ()
    if k == nvars:  # one window holds every row
        yield fast, block
        return
    for slow in product(domain, repeat=nvars - k - 1):
        fixed = [_held(n, (v,), c * block) for v in slow]
        for a in range(0, m, c):
            values = domain[a:a + c]
            yield [*fixed, _held(n, values, block), *fast], len(values) * block


_block = (None, {})  # the innermost open block's poset and node-value tables


@contextmanager
def shared_node_values(p):
    """Inside this block the one-window scans of the poset object p share
    node values, one table per mode, domain and number of slots: the
    domain and the slots fix the window's slot values over p, and ``->``
    reads differently in the two modes.  Scans of other posets, or
    outside every block, share nothing.  However the block ends, it
    restores the state it found."""
    global _block
    outer, _block = _block, (p, {})
    try:
        yield
    finally:
        _block = outer


def scan_validity(p, plan, domain, limit, modal=False):
    """Check a ScanPlan under every assignment of domain values to its
    slots, reading ``->`` materially when modal is set.

    Rows are ordered with slot 0 slowest; one work unit is one row, and a
    refuted scan counts every row up to and including the first refuting
    one.  Returns (status, work) with status one of "valid", "refuted",
    "budget"; with a limit, at most limit rows are examined.

    Rows are evaluated bit-sliced, a window of at most WINDOW rows at a
    time, so a budget is overrun by less than one window's evaluation.
    A one-window scan inside a shared_node_values(p) block reads and adds
    to the block's node values; the limit only masks the rows read off
    the formula's value, so a value read there changes no status or work.
    """
    nvars = plan.nvars
    if nvars and not domain:
        return ("valid", 0)
    if not isinstance(domain, (tuple, range)):
        domain = tuple(domain)  # hashable, for the pattern cache
    shared = _block[0] is p and len(domain) ** nvars <= WINDOW  # one window
    start = 0
    for slots, rows in _windows(p.n, domain, nvars):
        if limit is not None and start >= limit:
            return ("budget", max(limit, 0))
        # bits above rows (a short last chunk) are computed but not read
        ones = (1 << rows) - 1
        cut = ones
        if limit is not None and start + rows > limit:
            cut = (1 << (limit - start)) - 1  # rows inside the budget
        memo = _block[1].setdefault((modal, domain, nvars), {}) if shared else {}
        holds = ones
        for t in _evaluate(plan.nodes, slots, p, ones, memo, modal):
            holds &= t
        fail = (ones ^ holds) & cut
        if fail:
            return ("refuted", start + (fail & -fail).bit_length())
        if cut != ones:
            return ("budget", limit)
        start += rows
    return ("valid", start)


def _scan(p, plan, domain, limit, meter, modal):
    status, work = scan_validity(p, plan, domain, limit, modal)
    if meter is not None:
        meter.spent += work
    if status == "budget":
        raise BudgetExceeded()
    return status == "valid"


def is_valid(p: Poset, f: Formula, meter: WorkMeter | None = None) -> bool:
    """Intuitionistic validity: true at every point under every
    upset valuation."""
    plan = scan_plan(f)
    if plan.modal:
        raise NotIntuitionistic(str(f))
    if p.n == 0:
        return True
    limit = None if meter is None else meter.remaining()
    return _scan(p, plan, _upset_domain(p, limit), limit, meter, False)


def is_valid_modal(p: Poset, f: Formula, meter: WorkMeter | None = None) -> bool:
    """Validity over the poset read as a reflexive-transitive frame;
    valuations range over arbitrary subsets, and ``->`` is material."""
    if p.n == 0:
        return True
    if p.n > 22:
        raise BudgetExceeded(f"2^{p.n} modal valuations per variable")
    limit = None if meter is None else meter.remaining()
    return _scan(p, scan_plan(f), range(1 << p.n), limit, meter, True)
