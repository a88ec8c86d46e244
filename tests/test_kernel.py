"""The bit-sliced valuation scanner against the row-by-row oracle, with
implication read intuitionistically and, as in a modal scan, materially."""

from __future__ import annotations

import random
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from ipckit.axioms import jankov_syntactic
from ipckit.catalog import fan
from ipckit.formulas import (
    BOT, And, Box, Imp, Or, Var, bw, godel_translate, grz_axiom, kc_axiom, parse, variables,
)
from ipckit.poset import build_poset, enumerate_posets, enumerate_rooted, upset_masks
from ipckit.scenarios import godel_suite
from ipckit import semantics
from ipckit.semantics import WINDOW, _windows, scan_plan, scan_validity, shared_node_values
from _oracle_windows import windows as oracle_windows
from _pureval import _dag, compile_formula
from _pureval import scan_validity as oracle_scan

POSETS5 = enumerate_posets(5)
MODES = (False, True)  # the modal flag of a scan


def _both(p, f, domain, limit=None, modal=False):
    """(status, work) from the scanner and from the oracle."""
    vs = sorted(variables(f))
    ops, args = compile_formula(f, {v: i for i, v in enumerate(vs)})
    new = scan_validity(p, scan_plan(f), list(domain), limit, modal)
    status, witness, work = oracle_scan(
        p.n, list(p.up), p.full_mask, ops, args, len(vs), list(domain), limit, modal)
    if status == "refuted" and vs:
        # the work count names the refuting row: its digits are the witness
        row = 0
        for i in witness:
            row = row * len(domain) + i
        assert row == work - 1
    return new, (status, work)


def test_plans_match_the_opcode_dag():
    # the plan walked off the interned formula lists the nodes the former
    # opcode compiler and _dag built, in the same order
    suite = godel_suite(200)
    fs = [*suite, *map(godel_translate, suite), grz_axiom(), kc_axiom(),
          *map(bw, range(6)),
          *(jankov_syntactic(p) for n in range(1, 6) for p in enumerate_rooted(n))]
    assert len(fs) == 433
    for f in fs:
        vs = sorted(variables(f))
        ops, args = compile_formula(f, {v: i for i, v in enumerate(vs)})
        assert scan_plan(f).nodes == tuple(n for n, *_ in _dag(ops, args)), f


def _limits(m, nvars):
    """Budgets at the edges: none, an overdrawn meter's -1, zero, one, the
    window size in force and the block sizes m**j of this scan, each
    exactly and off by one."""
    out = {None, -1, 0, 1}
    for edge in [semantics.WINDOW] + [m ** j for j in range(1, nvars + 1)]:
        out.update((edge - 1, edge, edge + 1))
    return sorted(out, key=lambda x: -1 if x is None else x)


def test_scanner_matches_oracle_on_fixed_formulas():
    fs = [bw(1), bw(2), grz_axiom(), parse("p0 | ~p0"),
          parse("[](p0 -> p1) -> ([]p0 -> []p1)"), parse("bot -> p0")]
    for n in range(1, 5):
        for p in enumerate_posets(n):
            ups = upset_masks(p)
            subsets = list(range(1 << p.n))
            for f in fs:
                for domain in (ups, subsets):
                    for modal in MODES:
                        new, old = _both(p, f, domain, modal=modal)
                        assert new == old


def test_budgets_at_window_edges(monkeypatch):
    # three variables over 32 values: with windows of 1024 rows, 32 of them
    antichain = next(p for p in POSETS5 if len(upset_masks(p)) == 32)
    chain = next(p for p in POSETS5 if len(upset_masks(p)) == 6)
    subsets = list(range(32))
    cases = [
        # valid: every window is scanned
        (antichain, parse("p0 & p1 & p2 -> p1"), upset_masks(antichain), MODES),
        # refuted inside the second window, on its first row, in the third
        (chain, parse("(p0 -> p1) | (p1 -> p2) | (p2 -> p0)"), subsets, (False,)),
        (chain, parse("~~p0 | p1 | p2 | ~p0"), subsets, (False,)),
        (chain, parse("p0 | p1 | p2 | ~p0"), subsets, (False,)),
        # the same three boxed so that a modal scan refutes them too, as the
        # material reading makes the three above classical tautologies
        (chain, parse("(p0 -> []p1) | (p1 -> []p2) | (p2 -> []p0)"), subsets, MODES),
        (chain, parse("[]~[]~p0 | p1 | p2 | []~p0"), subsets, MODES),
        (chain, parse("p0 | p1 | p2 | []~p0"), subsets, MODES),
    ]
    # at windows of 1024 rows, and at the real size, where the refuted
    # scans stop inside the first of 8 windows
    for window in (1024, WINDOW):
        monkeypatch.setattr(semantics, "WINDOW", window)
        stops = []
        for p, f, domain, modes in cases:
            for modal in modes:
                _, (status, work) = _both(p, f, domain, modal=modal)
                if status == "refuted":
                    stops.append(work)
                limits = _limits(32, 3) + [work - 1, work, work + 1]
                for limit in limits:
                    new, old = _both(p, f, domain, limit, modal)
                    assert new == old, (f, limit, modal, window)
        assert stops[:3] == [1093, 1025, 2049]


def test_domains_wider_than_a_window():
    # one variable's domain alone spans more than one window
    fan12 = fan(12)  # 4097 upsets
    antichain = build_poset([f"a{i}" for i in range(13)], [])  # 8192 upsets
    cases = [
        # valid: every row of both windows
        (antichain, parse("p0 -> p0"), MODES),
        # valid: a window of 4096 rows, then one of a single row
        (fan12, parse("p0 -> p0"), MODES),
        # refuted in both modes where p0 is one top and p1 is empty: on the
        # first row of the third window, which holds p0 fixed
        (fan12, parse("p0 -> p1"), MODES),
        # classical tautologies from here on, which a modal scan finds
        # valid as it does p0 -> p0 (over 4097**2 rows for the last two,
        # too many for the row-by-row oracle).
        # Refuted only where p0 is every top but not the root: the last
        # row of the first window
        (fan12, parse("~~p0 -> p0"), (False,)),
        # refuted on the second row
        (fan12, parse("p0 | ~p0"), (False,)),
        # refuted where p1 holds at the root and p0 is one top: in the
        # third window, which holds a single row
        (fan12, parse("p1 -> p0 | ~p0"), (False,)),
        # refuted at the root where p0 and p1 are two distinct tops: on
        # the third row of the third window, which holds p0 fixed
        (fan12, parse("(p0 -> p1) | (p1 -> p0)"), (False,)),
    ]
    for p, f, modes in cases:
        domain = upset_masks(p)
        for modal in modes:
            _, (_, work) = _both(p, f, domain, modal=modal)
            limits = _limits(len(domain), len(variables(f))) + [work - 1, work, work + 1]
            for limit in limits:
                new, old = _both(p, f, domain, limit, modal)
                assert new == old, (f, limit, modal)
    # two variables over 4097 values: windows of 4096 rows and of 1 row
    # alternate; the oracle can only follow a budgeted scan
    f = parse("p0 -> (p1 -> p0)")
    domain = upset_masks(fan12)
    for limit in (0, 1, WINDOW - 1, WINDOW, WINDOW + 1, WINDOW + 2,
                  2 * 4097 - 1, 2 * 4097, 2 * 4097 + 1):
        for modal in MODES:
            new, old = _both(fan12, f, domain, limit, modal)
            assert new == old == ("budget", limit), (limit, modal)


def test_windows_match_the_replicated_pattern_oracle():
    # fast patterns built over a window's own rows are one block's patterns
    # replicated across the window, on every window of every scan shape;
    # a scan fits one window, and may share node values, exactly when
    # m**nvars <= WINDOW
    def rows(windows):
        return [([tuple(s) for s in slots], n_rows) for slots, n_rows in windows]

    domains = {(n, p.upsets) for n in range(1, 6) for p in enumerate_posets(n)}
    domains |= {(n, range(1 << n)) for n in range(1, 6)}
    for n, domain in domains:
        for nvars in range(1, 5):
            got = rows(_windows(n, domain, nvars))
            assert got == rows(oracle_windows(n, domain, nvars)), (n, domain, nvars)
            assert (len(got) == 1) == (len(domain) ** nvars <= WINDOW)


def test_work_counts_match():
    p = enumerate_posets(3)[0]
    for modal in MODES:
        new, old = _both(p, parse("p0 -> p0"), upset_masks(p), modal=modal)
        assert new[1] == old[1] == len(upset_masks(p))


def test_variable_free_formulas():
    p = POSETS5[3]
    for f in (BOT, Imp(BOT, BOT), Box(BOT)):
        for limit, modal in product((None, -1, 0, 1), MODES):
            new, old = _both(p, f, upset_masks(p), limit, modal)
            assert new == old


def _formulas(nvars):
    atoms = st.sampled_from([Var(i) for i in range(nvars)] + [BOT])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(And, sub, sub), st.builds(Or, sub, sub),
            st.builds(Imp, sub, sub), st.builds(Box, sub)),
        max_leaves=12)


@st.composite
def _scans(draw):
    p = draw(st.sampled_from(POSETS5))
    f = draw(_formulas(draw(st.integers(3, 5))))
    for v in range(3):  # at least three variables, so scans span windows
        if v not in variables(f):
            op = draw(st.sampled_from([And, Or, Imp]))
            f = op(Var(v), f) if draw(st.booleans()) else op(f, Var(v))
    if draw(st.booleans()):
        domain = upset_masks(p)
    else:
        domain = list(range(1 << p.n))
    limits = _limits(len(domain), len(variables(f)))
    limit = draw(st.one_of(st.sampled_from(limits), st.integers(0, 40000)))
    return p, f, domain, limit, draw(st.sampled_from(MODES))


# derandomized: every run checks the same examples
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_scans())
def test_scanner_matches_oracle_on_generated_scans(scan):
    new, old = _both(*scan)
    assert new == old


@st.composite
def _scan_sequences(draw):
    """A poset p and scans in turn on p and on a poset q of another order
    and the same size: formulas that share subformulas, each scanned on
    one order or on both, in one mode or in both, over domains that
    interleave the upsets, all subsets and a permutation of either (the
    same length, other contents or order), with limits mixed in."""
    n = draw(st.integers(2, 5))
    p, q = draw(st.lists(st.sampled_from(enumerate_posets(n)), min_size=2, max_size=2,
                         unique_by=lambda r: r.up))
    pool = draw(st.lists(_formulas(2), min_size=2, max_size=4))
    pick = st.sampled_from(pool)
    shared = st.one_of(pick, st.builds(Box, pick), st.builds(
        lambda op, a, b: op(a, b), st.sampled_from([And, Or, Imp]), pick, pick))
    scans = []
    for _ in range(draw(st.integers(3, 6))):
        f = draw(shared)
        kind = draw(st.sampled_from(["upsets", "subsets", "permuted upsets", "permuted subsets"]))
        shuffle = random.Random(draw(st.integers(0, 1 << 16))).shuffle
        modes = draw(st.sampled_from([(False,), (True,), MODES, MODES[::-1]]))
        for r in draw(st.sampled_from([(p,), (q,), (p, q), (q, p)])):
            domain = upset_masks(r) if kind.endswith("upsets") else list(range(1 << r.n))
            if kind.startswith("permuted"):
                shuffle(domain)
            limit = draw(st.one_of(
                st.none(), st.sampled_from(_limits(len(domain), len(variables(f)))),
                st.integers(0, 2000)))
            # one domain scanned in both modes in turn
            scans += [(r, f, domain, limit, modal) for modal in modes]
    return p, scans


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_scan_sequences())
def test_scan_sequences_match_oracle(sequence):
    # inside a block for p, scans of p share the values of equal
    # subformulas in one mode, and scans of q, in a block not theirs, share
    # none: every scan must still end as the row-by-row oracle's does
    p, scans = sequence
    with shared_node_values(p):
        for scan in scans:
            new, old = _both(*scan)
            assert new == old, scan
