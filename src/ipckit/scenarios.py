"""Named verification scenarios.

Each scenario walks a deterministic instance space (poset enumerations in
canonical-code order, or explicit parameter grids), checks one discrete
property per instance, and aggregates a VerificationReport.  Budgets are
work units (valuation rows + search nodes); running out flips the status
to "budget" at a schedule-independent instance, so reports are
byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import random
from itertools import product

from .axioms import decompose_kg, jankov_syntactic, validates_jankov, validates_subframe
from .budget import DEFAULT_ALGEBRA_CAP, DEFAULT_ENUM_CAP, DEFAULT_SUBALG_CAP, WorkMeter
from .catalog import (
    catalog_get,
    chain,
    fan,
    gn_trunc,
    ladder_trunc,
    ladder_upset,
    one_point,
    rn_member,
    two_antichain,
    xm_trunc,
    y_poset,
)
from .errors import BudgetExceeded, ParameterOutOfRange, UnknownKey, UnknownScenario
from .formulas import BOT, And, Imp, Or, Var, bw, godel_translate, grz_axiom, kc_axiom, pretty
from .heyting import count_quotients, count_subalgebras, dual_poset, upset_algebra
from .morphisms import PMorphism, epartitions, find_pmorphism, image_of_upset, quotient
from .poset import (
    _bits,
    are_isomorphic,
    canonical_code,
    enumerate_posets,
    enumerate_rooted,
    stack,
    width,
)
from .report import Counterexample, VerificationReport
from .semantics import is_valid, is_valid_modal, shared_node_values


def _enum_cap(size):
    """Raise BudgetExceeded naming the first size past the enumeration
    cap if size is past it."""
    cap = DEFAULT_ENUM_CAP
    if size > cap:
        raise BudgetExceeded(f"size {cap + 1} exceeds enumeration cap {cap}")


def _upto(enum, size, first=1, **kw):
    """The posets enum(n, **kw) lists for n from first to size, in turn.
    Past the enumeration cap it enumerates nothing (_enum_cap)."""
    _enum_cap(size)
    return [p for n in range(first, size + 1) for p in enum(n, **kw)]


# -- fixed formula suite for the translation scenario -----------------------


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([Var(0), Var(1), BOT])
    op = (And, Or, Imp)[rng.randrange(3)]
    return op(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def godel_suite(count):
    """The first count of bw(1), bw(2), the weak excluded middle, then
    distinct seeded random fills."""
    out = [bw(1), bw(2), kc_axiom()][:count]
    seen = set(out)
    rng = random.Random(0x1C0FFEE)
    while len(out) < count:
        f = _random_formula(rng, 4)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return tuple(out)


# -- closure family ----------------------------------------------------------


def _words_upto(weight):
    """Compositions over {1, 2} with total at most weight, shortlex order."""
    return [w for n in range(weight + 1) for w in product((1, 2), repeat=n)
            if sum(w) <= weight]


def rn_members(size, nmax):
    """All closure-family members of at most the given size with chain
    parameter at most nmax, deduplicated: the first member built for each
    canonical code, in canonical-code order.

    The single point is included as the degenerate member when size is at
    least 1: it is the image of any principal upset, while the sum shapes
    all have two or more points."""
    found = {}

    def add(member):
        found.setdefault(canonical_code(member), member)

    if size >= 1:
        add(one_point())
    # the top point and the tail take a point each.  A member only grows
    # with k, since |L(k)| runs 1, 1, 2, 3, ..., and with m, so each tail's
    # loop stops at the first member that does not fit
    for word in _words_upto(size - 2):
        for tail, bound in (("k", size), ("m", nmax)):
            for x in range(bound + 1):
                member = rn_member(word, **{tail: x})
                if member.n > size:
                    break
                add(member)
    # degenerate top: collapsing the whole upper segment of a chain-type
    # member onto its maximum lands on these, so they belong to the family
    for m in range(0, nmax + 1):
        if 1 + 4 + m <= size:
            add(stack([("h", one_point()), ("f", ladder_upset(4)),
                       ("c", chain(m))]))
    return [found[c] for c in sorted(found)]


# -- scenario bodies ---------------------------------------------------------
# Each body returns (instances, check) where check(instance, meter) returns
# (poset_for_report, detail): detail is None on a pass, and otherwise says
# why the instance fails.


def _sobolev_width(params):
    posets = _upto(enumerate_rooted, params["size"])
    axioms = [(n, bw(n)) for n in params["ns"]]

    def check(p, meter):
        w = width(p)
        for n, ax in axioms:
            v = is_valid(p, ax, meter=meter)
            if v != (w <= n):
                return p, f"width={w} but bw({n}) {'valid' if v else 'refuted'}"
        return p, None

    return posets, check


def _bw_subframe_triangle(params):
    if any(n < 1 for n in params["ns"]):
        raise ParameterOutOfRange("bw-subframe-triangle is stated for n >= 1")
    posets = _upto(enumerate_rooted, params["size"])
    axioms = [(n, bw(n), fan(n + 1)) for n in params["ns"]]

    def check(p, meter):
        for n, ax, fn in axioms:
            v = is_valid(p, ax, meter=meter)
            s = validates_subframe(p, fn, meter=meter)
            if v != s:
                return p, f"bw({n})={v} but subframe(F({n+1}))={s}"
        return p, None

    return posets, check


def _kracht_bw2(params):
    posets = _upto(enumerate_rooted, params["size"])
    frames = [catalog_get(f"BW2({i})") for i in range(1, 12)]

    def check(p, meter):
        w = width(p)
        ok = all(validates_jankov(p, fr, meter=meter) for fr in frames)
        if ok != (w <= 2):
            return p, f"width={w} but splitting check gave {ok}"
        return p, None

    return posets, check


def _appendix(beta, family, count, among=None):
    """The body of an appendix theorem: on the rooted posets of width at
    most 2, those validating the subframe formula of among when it is
    given, the subframe formula of beta holds exactly when the splitting
    formulas of family(1..count) all hold."""

    def body(params):
        posets = _upto(enumerate_rooted, params["size"], max_width=2)
        if among is not None:
            kept = catalog_get(among)
            posets = [p for p in posets if validates_subframe(p, kept)]
        target = catalog_get(beta)
        frames = [catalog_get(f"{family}({i})") for i in range(1, count + 1)]

        def check(p, meter):
            lhs = validates_subframe(p, target, meter=meter)
            rhs = all(validates_jankov(p, fr, meter=meter) for fr in frames)
            if lhs != rhs:
                return p, f"beta({beta})={lhs} but {family}-splittings={rhs}"
            return p, None

        return posets, check

    return body


def _duality_counts(params):
    _enum_cap(params["size"])
    _enum_cap(params["dual_size"])
    # an n-point antichain has 2**n upsets and no n-point poset has more,
    # so this refuses exactly the sizes at which some instance would trip
    # a cap, in the order the instances would meet them, and before
    # anything is enumerated
    for key, cap, kind in (("size", DEFAULT_ALGEBRA_CAP, "algebra"),
                           ("size", DEFAULT_SUBALG_CAP, "subalgebra"),
                           ("dual_size", DEFAULT_ALGEBRA_CAP, "algebra")):
        if 2 ** (n := params[key]) > cap:
            raise BudgetExceeded(f"{key} {n} gives up to {2 ** n} upsets (an antichain "
                                 f"of {n} points), past {kind} cap {cap}")
    small = _upto(enumerate_posets, params["size"], first=0)
    mid = _upto(enumerate_posets, params["dual_size"], first=0)
    instances = [("counts", p) for p in small] + [("dual", p) for p in mid]

    def check(inst, meter):
        kind, p = inst
        alg = upset_algebra(p)
        if kind == "counts":
            nup = len(p.upsets)
            if count_quotients(alg) != nup:
                return p, "quotient count differs from upset count"
            if count_subalgebras(alg) != len(epartitions(p)):
                return p, "subalgebra count differs from E-partition count"
            return p, None
        if not are_isomorphic(dual_poset(alg), p):
            return p, "dual of the upset algebra is not the poset"
        return p, None

    return instances, check


def _godel_transfer(params):
    posets = _upto(enumerate_posets, params["size"])
    suite = [(f, godel_translate(f)) for f in godel_suite(params["formulas"])]
    grz = grz_axiom()

    def check(p, meter):
        with shared_node_values(p):
            if not is_valid_modal(p, grz, meter=meter):
                return p, "grz axiom refuted"
            for f, t in suite:
                ii = is_valid(p, f, meter=meter)
                mm = is_valid_modal(p, t, meter=meter)
                if ii != mm:
                    return p, f"transfer fails for {pretty(f)}"
        return p, None

    return posets, check


def _jankov_oracle(params):
    targets = _upto(enumerate_rooted, params["target_size"])
    hosts = _upto(enumerate_posets, params["host_size"])
    instances = [(h, t) for h in hosts for t in targets]

    def check(inst, meter):
        host, target = inst
        syntactic = is_valid(host, jankov_syntactic(target), meter=meter)
        semantic = not image_of_upset(target, host, meter=meter)
        if syntactic != semantic:
            return host, (
                f"syntactic={syntactic} semantic={semantic} "
                f"for target {canonical_code(target).decode()}")
        return host, None

    return instances, check


def _collapse(src, dst, image):
    """Whether the map sending each point e of src to dst's point named
    image[e], a PMorphism checked by validate(), is onto."""
    pm = PMorphism(src, dst, tuple(dst.index(image[e]) for e in src.elements))
    pm.validate()
    return pm.is_surjective()


def _ym_rigidity(params):
    """Y(k) maps onto Y(m) exactly when k == m (the report names Y(k)), and
    the tower over Y(m) collapses onto Y(m) at d (the report names Y(m))."""
    ys = [y_poset(m) for m in range(1, params["max_m"] + 1)]
    instances = [(yk, ym, None) for yk in ys for ym in ys]
    for m, y in enumerate(ys, 1):
        x = xm_trunc(m, 3, params["trunc"])
        above_d = x.up[x.index("d")]
        instances.append((x, y, {e: "d" if above_d >> i & 1 else e
                                 for i, e in enumerate(x.elements)}))

    def check(inst, meter):
        src, dst, image = inst
        if image is not None:
            return dst, None if _collapse(src, dst, image) else "collapse map not onto"
        pm = find_pmorphism(src, dst, surjective=True, meter=meter)
        if (pm is not None) != (src is dst):
            return src, f"surjection {src.name}->{dst.name} {'found' if pm else 'missing'}"
        return src, None

    return instances, check


def _one_step(p):
    """The quotients of p by one alpha or one beta pair, each pair a block
    among singletons, blocks sorted by least point, so that a quotient met
    again is the same labelled poset and canonical_code's cache answers it
    (quotient checks the E-partition condition):
    - alpha pairs {x, c}, where c is the one upper cover of x;
    - beta pairs {x, y}, x < y by index, with strict_up(x) == strict_up(y).
    """
    covers = p.upper_covers
    pairs = [1 << x | 1 << cs[0] for x, cs in enumerate(covers) if len(cs) == 1]
    pairs += [1 << x | 1 << y for x in range(p.n) for y in range(x + 1, p.n)
              if p.strict_up(x) == p.strict_up(y)]
    return [quotient(p, sorted([m] + [1 << i for i in _bits(p.full_mask & ~m)],
                               key=lambda b: b & -b))[0]
            for m in pairs]


def _quotient_codes(p, memo):
    """The canonical codes of p's quotient classes, in sorted order: the
    code of p and the classes of each one-step reduction of p.  p's own
    reductions are built from p; the classes of each reduction are read
    from memo, keyed by canonical code (isomorphic posets have the same
    quotient classes), or computed into it first.  p's list is stored in
    memo too."""
    codes = {canonical_code(p)}
    for q in _one_step(p):
        code = canonical_code(q)
        if code not in memo:
            _quotient_codes(q, memo)
        codes.update(memo[code])
    memo[canonical_code(p)] = out = sorted(codes)
    return out


def rn_closure_escape(member, member_codes, memo=None):
    """Why the closure check fails at a rooted member: a detail naming the
    first image outside member_codes, or None.

    It checks (1) that up(x) is a member, for every point x of member, and
    (2) that every quotient of member is a member, in the order of their
    codes.  Run on every member
    of a family of rooted posets, with member_codes some of their codes,
    it decides the same question as checking every rooted quotient of
    every upset of every member:
    - (1) and (2) are such quotients: up(x) is an upset and its own
      rooted quotient, and member, rooted, is up(root); every quotient of
      a rooted poset is rooted.
    - Let q be a rooted quotient of an upset U of member m, and x a point
      of U that the projection a sends to the root of q.  A p-morphism
      maps up(x) onto up(a(x)), which is all of q, and its restriction to
      the upset up(x) is again a p-morphism, so q is a quotient of up(x),
      as in image_of_upset.  By (1), up(x) is isomorphic to a member m',
      and by (2) for m', q is a member.
    So where the per-upset check fails at one member, this one fails at
    that member or at another, and the family passes exactly when it did.

    (2) reads the quotients off one-step reductions (_quotient_codes), as
    in the de Jongh-Troelstra theorem (Indag. Math. 28, 1966; Chagrov and
    Zakharyaschev, Modal Logic, 1997): every p-morphism between finite
    posets is a composition of alpha and beta reductions.  A quotient of a
    reduction of p is a quotient of p (p-morphisms compose).  Conversely
    let f map p onto q and identify two points.  Take x maximal among the
    points whose image has another preimage, and y != x maximal among the
    preimages of f(x).  No point z > x has f(z) = f(x), so f maps
    strict_up(x) one to one onto strict_up(f(x)), since f(up(x)) =
    up(f(x)); each of those images has only its one preimage.  A point
    z > y other than x has f(z) > f(x) by the choice of y, so z lies in
    strict_up(x).
    - If y < x: strict_up(y) lies in up(x) and holds x, so it is up(x),
      and x is the one upper cover of y: {y, x} is an alpha pair.
    - Else strict_up(y) lies in strict_up(x).  Each w > x has f(w) in
      up(f(y)) = f(up(y)), and w is the only preimage of f(w), which is
      not f(y); so w > y, strict_up(y) == strict_up(x), and {x, y} is a
      beta pair.
    So f identifies an alpha or beta pair, and f = g r for the reduction r
    by that pair and a map g.  g is a p-morphism onto q: r(a) <= r(b)
    gives r(b) = r(b') with b' >= a, so g(r(a)) = f(a) <= f(b') =
    g(r(b)); and f(a) <= t gives t = f(b) with b >= a, so r(b) >= r(a).
    So q is a quotient of the reduction, and by induction on the size
    _quotient_codes lists its class.  The memo holds complete class lists
    only, so the detail depends on member and member_codes alone.
    """
    for x in range(member.n):
        code = canonical_code(member.restrict(member.up[x]))
        if code not in member_codes:
            return f"principal upset {code.decode()} escapes the family"
    for code in _quotient_codes(member, {} if memo is None else memo):
        if code not in member_codes:
            return f"rooted image {code.decode()} escapes the family"
    return None


def _rn_closure(params):
    nmax = params["n"]
    size = params["size"]
    members = rn_members(size, nmax)
    member_codes = {canonical_code(p) for p in members}
    negative = stack([("h", one_point()), ("f", ladder_upset(4)),
                      ("c", chain(nmax + 1))])
    instances = [("closure", p) for p in members]
    instances += [("negative", p) for p in members]
    memo = {}  # quotient classes by code, shared by this run's members

    def check(inst, meter):
        kind, member = inst
        if kind == "negative":
            if image_of_upset(negative, member, meter=meter):
                return member, "chain-extended member arises as an image"
            return member, None
        return member, rn_closure_escape(member, member_codes, memo)

    return instances, check


def _kg_structure(params):
    posets = _upto(enumerate_rooted, params["size"])
    axioms = [catalog_get(f"P({i})") for i in (1, 2, 3)]

    def check(p, meter):
        dec = decompose_kg(p) is not None
        val = all(validates_subframe(p, a, meter=meter) for a in axioms)
        if dec != val:
            return p, f"decomposition={dec} but subframe axioms={val}"
        return p, None

    return posets, check


def _pm_constructions(params):
    """The paper's collapse maps, each checked onto its target (the report
    names the source): G(n) onto G(m) for m <= n and onto a point over L(4)
    over a chain of n, and a truncation over a middle summand onto the
    truncation without it, the middle sent to the truncation's bottom."""
    nlv = params["trunc"]
    instances = []
    for n in range(1, params["max_n"] + 1):
        src = gn_trunc(n, nlv)
        for m in range(1, n + 1):
            instances.append((src, gn_trunc(m, nlv), {
                e: f"c.c{min(int(e[3:]), m - 1)}" if e.startswith("c.c") else e
                for e in src.elements}))
        dst = stack([("t", one_point()), ("f", ladder_upset(4)), ("c", chain(n))])
        instances.append((src, dst, {
            e: "t.pt" if e.startswith(("t.", "l.")) else e for e in src.elements}))
    z = stack([("f", ladder_upset(4)), ("c", chain(1))])
    dst = stack([("x", one_point()), ("l", ladder_trunc(nlv)), ("z", z)])
    for mid in (one_point(), two_antichain(),
                stack([("a", one_point()), ("b", two_antichain())])):
        src = stack([("x", one_point()), ("l", ladder_trunc(nlv)), ("y", mid), ("z", z)])
        instances.append((src, dst, {
            e: "l.omega" if e.startswith("y.") else e for e in src.elements}))

    def check(inst, meter):
        src, dst, image = inst
        return src, None if _collapse(src, dst, image) else "not onto"

    return instances, check


_SCENARIOS = {
    "sobolev-width": ({"size": 6, "ns": (1, 2, 3)}, _sobolev_width),
    "bw-subframe-triangle": ({"size": 6, "ns": (1, 2)}, _bw_subframe_triangle),
    "kracht-bw2": ({"size": 7}, _kracht_bw2),
    "appendix-K": ({"size": 8}, _appendix("P2", "K", 7)),
    "appendix-G": ({"size": 8}, _appendix("P3", "G", 6, among="P2")),
    "duality-counts": ({"size": 4, "dual_size": 6}, _duality_counts),
    "godel-transfer": ({"size": 5, "formulas": 200}, _godel_transfer),
    "jankov-oracle": ({"target_size": 4, "host_size": 5}, _jankov_oracle),
    "ym-rigidity": ({"max_m": 4, "trunc": 8}, _ym_rigidity),
    "rn-closure": ({"size": 8, "n": 2}, _rn_closure),
    "kg-structure": ({"size": 8}, _kg_structure),
    "pm-constructions": ({"max_n": 3, "trunc": 12}, _pm_constructions),
}


def scenario_names():
    return sorted(_SCENARIOS)


def scenario_defaults(name):
    """The default parameters of a registered scenario."""
    if name not in _SCENARIOS:
        raise UnknownScenario(name)
    return dict(_SCENARIOS[name][0])


def scenario_params(name, params=None):
    """The parameters a run of the scenario uses: its defaults updated with
    params.  Raises UnknownKey for a key the defaults lack and
    ParameterOutOfRange for a negative int, alone or in a sequence (such
    as ns), which no scenario takes, and for an empty sequence, which
    would check nothing on any instance."""
    merged = scenario_defaults(name)
    for key, value in (params or {}).items():
        if key not in merged:
            raise UnknownKey(f"{name} takes no parameter {key!r}")
        items = value if isinstance(value, (tuple, list)) else (value,)
        if not items:
            raise ParameterOutOfRange(f"{name} parameter {key} is empty")
        if any(isinstance(v, int) and v < 0 for v in items):
            raise ParameterOutOfRange(f"{name} parameter {key}={value} is negative")
        merged[key] = value
    return merged


def _run_check(check, inst, budget):
    """(detail, poset, spent, tripped) for one instance; the poset is kept
    only for a failing instance (detail not None), the one place the
    report reads it, so pool workers send no passing poset back."""
    meter = WorkMeter(limit=budget)
    try:
        poset, detail = check(inst, meter)
        return detail, None if detail is None else poset, meter.spent, False
    except BudgetExceeded:
        return None, None, meter.spent, True


_WORKER = {}


def _worker_run(args):
    index, budget = args
    return _run_check(_WORKER["check"], _WORKER["instances"][index], budget)


def run_scenario(name, params=None, budget=None, jobs=1,
                 max_counterexamples=10) -> VerificationReport:
    """Execute a registered scenario and return its report.  Raises
    ParameterOutOfRange when the parameters leave no instance to check.

    Every instance runs against the full budget; the aggregation walks
    instances in order and trips at the first one pushing the cumulative
    work over budget, so the outcome does not depend on jobs.
    """
    merged = scenario_params(name, params)
    report = VerificationReport(scenario=name, params=dict(merged))
    instances, check = _SCENARIOS[name][1](merged)
    if not instances:
        raise ParameterOutOfRange(f"{name} has no instances at {merged}")

    if jobs and jobs > 1:
        import multiprocessing

        # the workers are forked (ipckit starts no thread) after _WORKER is
        # set, so each inherits the parent's instances and check: the
        # scenario body runs once, only indices go out and only failing
        # posets come back.  Aggregated while the pool runs, so a budget
        # trip leaves the with block, which terminates the workers and
        # stops the dispatch
        _WORKER["instances"], _WORKER["check"] = instances, check
        try:
            with multiprocessing.get_context("fork").Pool(jobs) as pool:
                results = pool.imap(
                    _worker_run, [(i, budget) for i in range(len(instances))],
                    chunksize=max(1, len(instances) // (jobs * 4)))
                _aggregate(report, results, budget, max_counterexamples)
        finally:
            _WORKER.clear()
    else:
        results = (_run_check(check, inst, budget) for inst in instances)
        _aggregate(report, results, budget, max_counterexamples)
    return report


def _aggregate(report, results, budget, max_counterexamples):
    """Add the results to report in instance order, up to the first one
    that trips the budget or takes the cumulative work over it."""
    for detail, poset, spent, tripped in results:
        report.work_units += spent
        if tripped or (budget is not None and report.work_units > budget):
            report.status = "budget"
            return
        report.instances_checked += 1
        if detail is not None:
            report.status = "fail"
            if len(report.counterexamples) < max_counterexamples:
                report.counterexamples.append(Counterexample(poset, detail))
