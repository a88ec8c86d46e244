"""Per-layer tracing of ipckit, done from outside the program.

``Tracer.install`` replaces public functions of the ipckit modules with
wrappers, in every namespace that bound them (``from ... import`` copies
included) and on the ``Poset`` class, and ``Tracer.uninstall`` puts every
original back.  Each wrapper records a span: one call, its duration, and
its self time (the duration minus the time of the traced calls it made).
Recursive functions are counted at their outermost call only.  Some
layers add counters: valuation rows and search nodes (read off the work
meter, so they reconcile with the reports' ``work_units``), refuted
scans, found morphisms, image hits and candidates, kept E-partitions and
canonical-code cache misses.

Pool workers forked by ``run_scenario(jobs > 1)`` inherit the wrappers.
Each worker result carries the worker's stats back to the parent, which
adds them to its own, so counts on the ``parallel`` workload cover the
workers while spans stay per process.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    # layer: [(module, function name), ...]
    "poset.enum": [("poset", "enumerate_posets"), ("poset", "enumerate_rooted")],
    "poset.upsets": [("poset", "upset_masks")],
    "poset.width": [("poset", "width")],
    "formulas.translate": [("formulas", "godel_translate")],
    "semantics.compile": [("semantics", "compile_formula"), ("semantics", "variables")],
    "morphisms.quotient": [("morphisms", "quotient")],
    "heyting.algebra": [("heyting", "upset_algebra")],
    "heyting.subalg": [("heyting", "count_subalgebras")],
    "heyting.dual": [("heyting", "dual_poset")],
    "heyting.quotients": [("heyting", "count_quotients")],
    "axioms.jankov_formula": [("axioms", "jankov_syntactic")],
    "axioms.decompose": [("axioms", "decompose_kg")],
}

# layer families, by layer-name prefix, for the shares of traced time
SHARES = {
    "semantics": ("semantics.",),
    "search": ("morphisms.pmorph", "morphisms.image_"),
    "algebra": ("heyting.", "morphisms.epart", "morphisms.quotient"),
    "poset": ("poset.",),
    "formulas": ("formulas.",),
    "axioms": ("axioms.",),
    "driver": ("scenarios.",),
}


def bell(n):
    """Number of set partitions of an n-element set."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


_RECEIVERS = []  # the installed tracer of this process, for worker results


class _Shipped(tuple):
    """A pool worker's result tuple, carrying the worker's stats home."""

    def __new__(cls, result, stats):
        self = super().__new__(cls, result)
        self.stats = stats
        return self

    def __reduce__(self):
        return _receive, (tuple(self), self.stats)


def _receive(result, stats):
    # runs in the parent's pool result thread while the pool's caller
    # waits, so it writes to worker_stats only
    if _RECEIVERS:
        for layer, counts in stats.items():
            _RECEIVERS[-1].worker_stats[layer].update(counts)
    return result


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Counter)         # layer -> counter -> value
        self.worker_stats = defaultdict(Counter)  # shipped home by pool workers
        self._stack = []        # child-time accumulators of the open spans
        self._depth = Counter()  # open spans per layer
        self._family_depth = Counter()  # open spans per SHARES family
        self._family = {}
        self._undo = []
        self._pid = os.getpid()
        self._restricts = 0
        self._new_meter = None

    # spans -------------------------------------------------------------

    def span(self, layer, fn, *args, **kwargs):
        """Call fn inside a span of layer; a call nested in an open span
        of the same layer runs untraced."""
        if self._depth[layer]:
            return fn(*args, **kwargs)
        family = self._family.get(layer)
        if family is None:
            family = self._family[layer] = next(
                (f for f, prefixes in SHARES.items() if layer.startswith(prefixes)), "")
        outermost = not self._family_depth[family]
        self._depth[layer] += 1
        self._family_depth[family] += 1
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self._depth[layer] -= 1
            self._family_depth[family] -= 1
            if self._stack:
                self._stack[-1][0] += dt
            st = self.stats[layer]
            st["calls"] += 1
            st["s"] += dt
            st["self_s"] += dt - frame[0]
            if outermost:  # time of the family's calls, callees included
                st["family_s"] += dt

    def _metered(self, layer, fn, args, meter, counter):
        """Run a metered call, with a meter of our own when the caller
        passed none, and add the units it charged to counter."""
        m = self._new_meter() if meter is None else meter
        before = m.spent
        try:
            return self.span(layer, fn, *args, m)
        finally:
            units = m.spent - before
            self.stats[counter[0]][counter[1]] += units
            if meter is not None:
                self.stats["work"]["metered"] += units

    def metered(self):
        """Units charged to callers' meters so far, workers included."""
        return sum(s["work"]["metered"] for s in (self.stats, self.worker_stats)
                   if "work" in s)

    def totals(self):
        out = {}
        for source in (self.stats, self.worker_stats):
            for layer, counts in source.items():
                out.setdefault(layer, Counter()).update(counts)
        return {layer: dict(c) for layer, c in out.items()}

    def _enter_worker(self):
        if os.getpid() != self._pid:  # first call in a forked pool worker
            self._pid = os.getpid()
            self.stats = defaultdict(Counter)
            self.worker_stats = defaultdict(Counter)
            self._stack = []
            self._depth = Counter()
            self._family_depth = Counter()

    # patching ----------------------------------------------------------

    def _replace(self, orig, new):
        if orig is None:  # gone from the program: its layer reads 0
            return
        for name, mod in list(sys.modules.items()):
            if name != "ipckit" and not name.startswith("ipckit."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _replace_method(self, cls, attr, wrap):
        orig = getattr(cls, attr, None)
        if orig is not None:
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, wrap(orig))

    def install(self):
        import importlib

        from ipckit.budget import WorkMeter
        from ipckit.poset import Poset

        self._new_meter = WorkMeter
        mods = {m: importlib.import_module(f"ipckit.{m}") for m in (
            "poset", "formulas", "semantics", "morphisms", "heyting",
            "axioms", "scenarios")}

        def plain(layer, fn):
            if fn is None:
                return None

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(layer, fn, *args, **kwargs)
            return wrapper

        for layer, names in LAYERS.items():
            for mod, name in names:
                fn = getattr(mods[mod], name, None)
                self._replace(fn, plain(layer, fn))

        def wrap(mod, name):
            """Replace mod.name with the decorated wrapper."""
            orig = getattr(mods[mod], name, None)

            def decorate(make):
                if orig is not None:
                    self._replace(orig, functools.wraps(orig)(make(orig)))
            return decorate

        def scan(layer):
            def make(fn):
                def wrapper(p, f, meter=None):
                    ok = self._metered(layer, fn, (p, f), meter, (layer, "rows"))
                    self.stats[layer]["refuted"] += not ok
                    return ok
                return wrapper
            return make

        wrap("semantics", "is_valid")(scan("semantics.int"))
        wrap("semantics", "is_valid_modal")(scan("semantics.modal"))

        # search nodes are read off the meter at the outermost search call,
        # so they stay reconciled however the image searches use
        # find_pmorphism
        nodes = ("morphisms.pmorph", "nodes")

        def search(layer, fn, args, meter):
            if self._family_depth["search"]:
                return self.span(layer, fn, *args, meter)
            return self._metered(layer, fn, args, meter, nodes)

        @wrap("morphisms", "find_pmorphism")
        def _(fn):
            def find_pmorphism(source, target, surjective=False, meter=None):
                pm = search("morphisms.pmorph", fn, (source, target, surjective), meter)
                self.stats["morphisms.pmorph"]["found"] += pm is not None
                return pm
            return find_pmorphism

        def image(layer):
            def make(fn):
                def wrapper(target, host, meter=None):
                    before = self._restricts
                    hit = search(layer, fn, (target, host), meter)
                    st = self.stats[layer]
                    st["hits"] += bool(hit)
                    st["candidates"] += self._restricts - before
                    return hit
                return wrapper
            return make

        wrap("morphisms", "image_of_upset")(image("morphisms.image_upset"))
        wrap("morphisms", "image_of_subposet")(image("morphisms.image_subposet"))

        @wrap("morphisms", "epartitions")
        def _(fn):
            def epartitions(p, cap=None):
                out = self.span("morphisms.epart", fn, p, cap)
                st = self.stats["morphisms.epart"]
                st["kept"] += len(out)
                st["tried"] += bell(p.n)
                return out
            return epartitions

        @wrap("poset", "canonical_code")
        def _(fn):
            def canonical_code(p):
                before = fn.cache_info().misses
                code = self.span("poset.canon", fn, p)
                self.stats["poset.canon"]["misses"] += fn.cache_info().misses - before
                return code
            return canonical_code

        def restrict(fn):
            @functools.wraps(fn)
            def wrapper(p, mask, name=None):
                self._restricts += 1
                return self.span("poset.restrict", fn, p, mask, name)
            return wrapper

        self._replace_method(Poset, "restrict", restrict)
        self._replace_method(Poset, "heights", lambda fn: plain("poset.heights", fn))

        @wrap("scenarios", "_worker_init")
        def _(fn):
            def worker_init(*args):
                self._enter_worker()
                return self.span("scenarios.driver", fn, *args)
            return worker_init

        # wraps() keeps the qualified name, so the pool pickles this wrapper
        # by reference and a forked worker finds it in its copy of the module
        @wrap("scenarios", "_worker_run")
        def _(fn):
            def worker_run(args):
                self._enter_worker()
                result = self.span("scenarios.driver", fn, args)
                stats, self.stats = self.stats, defaultdict(Counter)
                return _Shipped(result, {k: dict(v) for k, v in stats.items()})
            return worker_run

        _RECEIVERS.append(self)

    def uninstall(self):
        while self._undo:
            ns, attr, orig = self._undo.pop()
            setattr(ns, attr, orig)
        if self in _RECEIVERS:
            _RECEIVERS.remove(self)


def layer_metrics(stats):
    """Per-layer metrics from Tracer.totals()."""

    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    scans = rows = scan_s = refuted = 0
    for kind in ("int", "modal"):
        layer = f"semantics.{kind}"
        m[f"{layer}.scans"] = get(layer, "calls")
        m[f"{layer}.rows"] = get(layer, "rows")
        m[f"{layer}.self_s"] = get(layer, "self_s")
        scans += get(layer, "calls")
        rows += get(layer, "rows")
        scan_s += get(layer, "self_s")
        refuted += get(layer, "refuted")
    m["semantics.rows_per_s"] = ratio(rows, scan_s)
    m["semantics.refuted_frac"] = ratio(refuted, scans)
    for layer in ("semantics.compile", "formulas.translate"):
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.s"] = get(layer, "s")

    pm = "morphisms.pmorph"
    m[f"{pm}.searches"] = get(pm, "calls")
    m[f"{pm}.nodes"] = get(pm, "nodes")
    m[f"{pm}.self_s"] = get(pm, "self_s")
    search_s = sum(get(layer, "self_s") for layer in (
        pm, "morphisms.image_upset", "morphisms.image_subposet"))
    m[f"{pm}.nodes_per_s"] = ratio(get(pm, "nodes"), search_s)
    m[f"{pm}.found_frac"] = ratio(get(pm, "found"), get(pm, "calls"))
    for kind in ("upset", "subposet"):
        layer = f"morphisms.image_{kind}"
        m[f"{layer}.calls"] = get(layer, "calls")
        m[f"{layer}.self_s"] = get(layer, "self_s")
        m[f"{layer}.hit_frac"] = ratio(get(layer, "hits"), get(layer, "calls"))
        m[f"{layer}.candidates_per_call"] = ratio(get(layer, "candidates"), get(layer, "calls"))

    m["poset.canon.calls"] = get("poset.canon", "calls")
    m["poset.canon.misses"] = get("poset.canon", "misses")
    m["poset.canon.self_s"] = get("poset.canon", "self_s")
    m["poset.enum.self_s"] = get("poset.enum", "self_s")
    for part in ("restrict", "heights", "upsets", "width"):
        m[f"poset.{part}.calls"] = get(f"poset.{part}", "calls")
        m[f"poset.{part}.self_s"] = get(f"poset.{part}", "self_s")

    ep = "morphisms.epart"
    m[f"{ep}.calls"] = get(ep, "calls")
    m[f"{ep}.self_s"] = get(ep, "self_s")
    m[f"{ep}.kept_frac"] = ratio(get(ep, "kept"), get(ep, "tried"))
    m["morphisms.quotient.calls"] = get("morphisms.quotient", "calls")
    m["morphisms.quotient.self_s"] = get("morphisms.quotient", "self_s")
    for part in ("algebra", "subalg", "dual", "quotients"):
        m[f"heyting.{part}.calls"] = get(f"heyting.{part}", "calls")
        m[f"heyting.{part}.self_s"] = get(f"heyting.{part}", "self_s")
    m["axioms.jankov_formula.self_s"] = get("axioms.jankov_formula", "self_s")
    m["axioms.decompose.self_s"] = get("axioms.decompose", "self_s")
    m["scenarios.driver.self_s"] = get("scenarios.driver", "self_s")

    # shares of all traced time: self time, and inclusive time (a family's
    # outermost calls with their callees, so the poset helpers a search
    # calls count for the search too; these shares need not sum to 1)
    total = sum(c.get("self_s", 0) for c in stats.values())
    for family, prefixes in SHARES.items():
        own = [c for layer, c in stats.items() if layer.startswith(prefixes)]
        m[f"share.{family}"] = ratio(sum(c.get("self_s", 0) for c in own), total)
        if family != "driver":
            m[f"share_incl.{family}"] = ratio(sum(c.get("family_s", 0) for c in own), total)
    return m
