"""What the benchmark's tracer (perfbench/tracer.py) needs of the program.

The tracer patches ipckit from outside and skips a name it cannot find,
so a rename or a change of kind would silently zero a layer's metrics.
These tests read perfbench/ and change nothing there.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from ipckit.poset import Poset, canonical_code
from ipckit.scenarios import run_scenario

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# wrapped by name in Tracer.install, besides the LAYERS table
_WRAPPED = [
    ("semantics", "is_valid"),
    ("semantics", "is_valid_modal"),
    ("morphisms", "find_pmorphism"),
    ("morphisms", "image_of_upset"),
    ("morphisms", "image_of_subposet"),
    ("morphisms", "epartitions"),
    ("poset", "canonical_code"),
    ("scenarios", "_worker_run"),
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    tracer = _load_tracer()
    names = [pair for pairs in tracer.LAYERS.values() for pair in pairs]
    for mod, name in names + _WRAPPED:
        fn = getattr(importlib.import_module(f"ipckit.{mod}"), name, None)
        assert callable(fn), f"ipckit.{mod}.{name}"


def test_traced_methods_are_plain_functions():
    for name in ("heights", "restrict"):
        assert inspect.isfunction(Poset.__dict__[name]), name
    assert callable(canonical_code.cache_info)


def test_traced_run_matches_untraced_run():
    params = {"size": 5}
    plain = run_scenario("kracht-bw2", params)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = run_scenario("kracht-bw2", params)
    finally:
        tracer.uninstall()
    assert traced.to_json() == plain.to_json()
    assert tracer.metered() == traced.work_units > 0
    stats = tracer.totals()
    assert stats["poset.width"]["calls"] > 0
    assert stats["morphisms.image_upset"]["calls"] > 0


def test_traced_run_reconciles_when_a_search_trips():
    # a search charges its nodes once, at its end or at the trip, so the
    # units the tracer reads off the meter of a search that raised must
    # still add up to the report's work_units; at budget 5 the fifth
    # instance's one 8-node search trips at its sixth node
    params = {"size": 5}
    plain = run_scenario("kracht-bw2", params, budget=5)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = run_scenario("kracht-bw2", params, budget=5)
    finally:
        tracer.uninstall()
    assert traced.to_json() == plain.to_json()
    assert (traced.status, traced.instances_checked, traced.work_units) == ("budget", 4, 6)
    assert tracer.metered() == traced.work_units
    assert tracer.totals()["morphisms.pmorph"]["nodes"] == traced.work_units


def test_traced_rn_closure_run_sees_the_quotient_layers():
    params = {"size": 6, "n": 1}
    plain = run_scenario("rn-closure", params)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = run_scenario("rn-closure", params)
    finally:
        tracer.uninstall()
    assert traced.to_json() == plain.to_json()
    assert tracer.metered() == traced.work_units
    stats = tracer.totals()
    assert stats["morphisms.quotient"]["calls"] > 0
    assert stats["poset.restrict"]["calls"] > 0  # a wrapped Poset method


def test_traced_duality_counts_run_sees_the_epartition_layer():
    # rn-closure reads its quotients off one-step reductions and lists no
    # E-partitions; duality-counts lists them to count subalgebras
    params = {"size": 3, "dual_size": 3}
    plain = run_scenario("duality-counts", params)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = run_scenario("duality-counts", params)
    finally:
        tracer.uninstall()
    assert traced.to_json() == plain.to_json()
    assert tracer.metered() == traced.work_units
    assert tracer.totals()["morphisms.epart"]["calls"] > 0


def test_traced_scan_run_sees_every_scan_layer():
    # plans are cached, so a warm run compiles nothing; cleared, the traced
    # run must still pass through the compile and translate names the
    # tracer wraps, or those layers would read 0 in a fresh interpreter
    from ipckit import semantics

    params = {"size": 3, "formulas": 10}
    plain = run_scenario("godel-transfer", params)
    for name in ("scan_plan", "_fast_patterns"):
        getattr(semantics, name).cache_clear()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = run_scenario("godel-transfer", params)
    finally:
        tracer.uninstall()
    assert traced.to_json() == plain.to_json()
    assert tracer.metered() == traced.work_units > 0
    stats = tracer.totals()
    assert stats["semantics.compile"]["calls"] > 0
    assert stats["formulas.translate"]["calls"] > 0
    assert stats["semantics.int"]["rows"] + stats["semantics.modal"]["rows"] == traced.work_units


def test_traced_godel_transfer_reconciles_with_shared_node_values():
    # node values are shared between consecutive scans, yet each formula's
    # scan must still pass through the wrapped is_valid or is_valid_modal
    # and charge its own rows, or the benchmark counts the scenario failed
    params = {"size": 3, "formulas": 20}
    plain = run_scenario("godel-transfer", params)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        traced = run_scenario("godel-transfer", params)
    finally:
        tracer.uninstall()
    assert traced.to_json() == plain.to_json()
    assert tracer.metered() == traced.work_units > 0
    stats = tracer.totals()
    # per poset: grz, then each formula and its translation
    scans = plain.instances_checked * (1 + 2 * 20)
    assert stats["semantics.int"]["calls"] + stats["semantics.modal"]["calls"] == scans
