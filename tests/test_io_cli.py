"""File formats, report rendering, and the command line surface."""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ipckit import scenarios
from ipckit.catalog import catalog_get, catalog_keys
from ipckit.cli import main
from ipckit.errors import BudgetExceeded, ParameterOutOfRange, SchemaError, UnknownKey
from ipckit.formulas import bw
from ipckit.io import (
    export_poset,
    import_poset,
    poset_from_obj,
    poset_text,
    poset_to_dot,
    poset_to_obj,
)
from ipckit.poset import are_isomorphic, build_poset, canonical_code, enumerate_rooted, width
from ipckit.report import render_report
from ipckit.scenarios import run_scenario, scenario_params
from ipckit.semantics import is_valid

F2 = build_poset(["r", "a", "b"], [("r", "a"), ("r", "b")], name="F2")


def test_json_roundtrip(tmp_path):
    path = tmp_path / "f2.json"
    export_poset(F2, "json", path)
    back = import_poset(path)
    assert canonical_code(back) == canonical_code(F2)
    assert back.name == "F2"


def test_dot_export():
    from ipckit.catalog import catalog_get

    dot = poset_to_dot(catalog_get("P2"))
    assert dot.count("->") == 4
    assert dot.count('"r"') >= 2  # node line plus rank group
    # quotes and backslashes in names are escaped on every line
    dot = poset_to_dot(build_poset(['a"b', "c\\"], [('a"b', "c\\")]))
    assert dot.count('"a\\"b"') == 3 and dot.count('"c\\\\"') == 3
    assert '  "a\\"b" -> "c\\\\";' in dot.splitlines()


def test_import_rejects_cycles(tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({
        "elements": ["a", "b"],
        "cover": [["a", "b"], ["b", "a"]],
    }))
    with pytest.raises(SchemaError) as err:
        import_poset(path)
    assert "CycleDetected" in str(err.value)


def test_import_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"elements\": 3}")
    with pytest.raises(SchemaError):
        import_poset(path)
    path.write_text("not json")
    with pytest.raises(SchemaError):
        import_poset(path)


@pytest.mark.parametrize("obj", [
    {"elements": ["a", "b"], "cover": [[["x"], "a"]]},
    {"elements": ["a", "b"], "cover": [["a", 1]]},
    {"elements": ["a", "b"], "cover": 5},
    {"elements": ["a", "b"], "cover": [["a", "b"]], "name": 5},
    {"elements": ["a"], "cover": [["a", "a"]]},  # [a, b] says a < b
])
def test_import_rejects_malformed_covers_and_names(tmp_path, capsys, obj):
    with pytest.raises(SchemaError):
        poset_from_obj(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["check", str(path), "p0 -> p0"]) == 2
    assert "SchemaError" in capsys.readouterr().err


def test_obj_roundtrip_drops_nothing():
    obj = poset_to_obj(F2)
    assert obj["elements"] == ["r", "a", "b"]
    assert sorted(obj["cover"]) == [["r", "a"], ["r", "b"]]
    assert are_isomorphic(poset_from_obj(obj), F2)


def test_report_rendering():
    report = run_scenario("duality-counts", {"size": 2, "dual_size": 2})
    text = render_report(report, "text")
    assert "status: pass" in text
    assert "instances checked" in text
    blob = json.loads(render_report(report, "json"))
    assert blob["status"] == "pass"
    assert blob["scenario"] == "duality-counts"


def test_report_embeds_counterexamples():
    from ipckit.report import Counterexample, VerificationReport

    report = VerificationReport(
        scenario="demo", params={"size": 1}, status="fail",
        instances_checked=1,
        counterexamples=[Counterexample(F2, "synthetic failure")],
        work_units=7)
    blob = json.loads(render_report(report, "json"))
    assert blob["counterexamples"][0]["poset"]["elements"] == ["r", "a", "b"]
    assert "synthetic failure" in render_report(report, "text")
    budget = VerificationReport(
        scenario="demo", params={}, status="budget", work_units=9)
    assert "status: budget" in render_report(budget, "text")


def test_cli_check(tmp_path, capsys):
    path = tmp_path / "f2.json"
    export_poset(F2, "json", path)
    assert main(["check", str(path), "p0 | ~p0"]) == 1
    assert main(["check", str(path), "p0 -> p0"]) == 0
    assert main(["modal-check", str(path), "[]p0 -> p0"]) == 0
    # -> is material in a modal check
    assert main(["modal-check", str(path), "p0 | ~p0"]) == 0
    assert main(["modal-check", str(path), "p0 -> []p0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("formula, shallow", [("p0&" * 3000 + "p0", "p0"),
                                              ("~" * 1200 + "p0", "~~p0")],
                         ids=["and-3000", "not-1200"])
def test_cli_checks_a_deep_formula_as_its_shallow_equivalent(tmp_path, capsys,
                                                              formula, shallow):
    # refuted, exit 1, as its shallow equivalent is
    path = tmp_path / "f2.json"
    export_poset(F2, "json", path)
    for text in (formula, shallow):
        assert main(["check", str(path), text]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("refuted\n", "")


def test_cli_jankov_subframe(tmp_path, capsys):
    host = tmp_path / "host.json"
    target = tmp_path / "target.json"
    export_poset(build_poset(["a", "b", "c", "d"],
                             [("a", "b"), ("b", "c"), ("c", "d")]), "json", host)
    export_poset(F2, "json", target)
    assert main(["jankov", str(host), str(target)]) == 0
    assert main(["subframe", str(host), str(target)]) == 0
    export_poset(F2, "json", host)
    assert main(["jankov", str(host), str(target)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command", ["jankov", "subframe"])
def test_cli_rejects_unrooted_targets(tmp_path, capsys, command):
    # a usage error, exit 2, not the exit 1 of a host that refutes
    host = tmp_path / "host.json"
    target = tmp_path / "target.json"
    export_poset(F2, "json", host)
    export_poset(build_poset(["a", "b"], []), "json", target)
    assert main([command, str(host), str(target)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1


def test_cli_pmorphism(tmp_path, capsys):
    src = tmp_path / "src.json"
    dst = tmp_path / "dst.json"
    export_poset(F2, "json", src)
    export_poset(build_poset(["x", "y"], [("x", "y")]), "json", dst)
    assert main(["pmorphism", str(src), str(dst), "--surjective"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip())["r"] == "x"
    assert main(["pmorphism", str(dst), str(src), "--surjective"]) == 1
    capsys.readouterr()


def test_cli_enumerate_and_catalog(capsys):
    assert main(["enumerate", "--size", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert main(["catalog", "P2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert len(blob["elements"]) == 5
    assert main(["catalog", "nosuch"]) == 2
    capsys.readouterr()
    assert main(["catalog", "--list"]) == 0
    keys = capsys.readouterr().out.split()
    assert keys == catalog_keys()
    assert main(["catalog"]) == 2
    assert "catalog" in capsys.readouterr().err


def test_cli_catalog_prints_the_poset_text(capsys):
    # every named key; the F(n)-style placeholders name no poset
    keys = [k for k in catalog_keys() if not re.search(r"\([^)]*[a-zA-Z]", k)]
    assert len(keys) == len(catalog_keys()) - 6
    for key in keys:
        assert main(["catalog", key]) == 0
        out = capsys.readouterr().out
        assert out == poset_text(catalog_get(key), "json"), key
        assert out.endswith("\n}\n") and json.loads(out)["elements"], key


@pytest.mark.parametrize("fmt", ["json", "dot"])
def test_cli_export_to_stdout_writes_the_file_bytes(tmp_path, capsysbinary, fmt):
    for p in (F2, catalog_get("BW2(5)"), build_poset(['a"b', "c\\"], [('a"b', "c\\")])):
        src, out = tmp_path / "p.json", tmp_path / f"p.{fmt}"
        export_poset(p, "json", src)
        export_poset(import_poset(src), fmt, out)
        assert main(["export", str(src), "--format", fmt]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


def test_poset_text_rejects_unknown_formats(tmp_path):
    with pytest.raises(ValueError):
        poset_text(F2, "xml")
    with pytest.raises(ValueError):
        export_poset(F2, "xml", tmp_path / "f2.xml")
    assert not (tmp_path / "f2.xml").exists()


def test_cli_translate(capsys):
    assert main(["translate", "p0 -> p1"]) == 0
    assert capsys.readouterr().out.strip() == "[]([]p0 -> []p1)"


def _wide_fails(params):
    # bw(1) is refuted exactly on the rooted posets of width 2 or more,
    # and each of those instances fails
    def check(p, meter):
        return p, None if is_valid(p, bw(1), meter=meter) else f"width={width(p)}"

    return scenarios._upto(enumerate_rooted, params["size"]), check


def test_run_scenario_reports_failing_instances(monkeypatch):
    # forked pool workers see the patched table too
    monkeypatch.setitem(scenarios._SCENARIOS, "wide-fails", ({"size": 5}, _wide_fails))
    posets = scenarios._upto(enumerate_rooted, 5)
    wide = [p for p in posets if width(p) >= 2]
    assert len(wide) > 3
    blobs = []
    for jobs in (1, 2):
        report = run_scenario("wide-fails", jobs=jobs, max_counterexamples=3)
        assert report.status == "fail"
        assert report.instances_checked == len(posets)
        assert report.work_units > 0
        assert [c.detail for c in report.counterexamples] == \
            [f"width={width(p)}" for p in wide[:3]]
        assert [canonical_code(c.poset) for c in report.counterexamples] == \
            [canonical_code(p) for p in wide[:3]]
        blobs.append(render_report(report, "json"))
    assert blobs[0] == blobs[1]


def test_scenario_body_runs_once_across_the_pool(monkeypatch, tmp_path):
    # every process that runs the body appends its pid; the workers are
    # forked from the parent with its instances and run no body of their own
    log = tmp_path / "bodies"

    def logged(params):
        with log.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return _wide_fails(params)

    monkeypatch.setitem(scenarios._SCENARIOS, "logged", ({"size": 5}, logged))
    report = run_scenario("logged", jobs=2)
    assert report.instances_checked == len(scenarios._upto(enumerate_rooted, 5))
    assert log.read_text() == f"{os.getpid()}\n"
    assert scenarios._WORKER == {}


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "duality-counts", "--param", "size=2",
                 "--param", "dual_size=2"]) == 0
    capsys.readouterr()
    assert main(["verify", "sobolev-width", "--size", "4",
                 "--budget", "50", "--format", "json"]) == 3
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "budget"


def test_cli_usage_error():
    assert main(["verify", "not-a-scenario"]) == 2


def test_run_scenario_rejects_unknown_keys():
    with pytest.raises(UnknownKey):
        run_scenario("sobolev-width", {"size": 3, "bogus": 3})
    with pytest.raises(UnknownKey):
        run_scenario("jankov-oracle", {"size": 3})


def test_run_scenario_rejects_negative_params():
    with pytest.raises(ParameterOutOfRange):
        run_scenario("sobolev-width", {"size": -3})
    with pytest.raises(ParameterOutOfRange):
        run_scenario("rn-closure", {"size": 5, "n": -1})
    with pytest.raises(ParameterOutOfRange):
        run_scenario("sobolev-width", {"size": 3, "ns": (1, -1)})


def test_run_scenario_rejects_vacuous_and_out_of_range_runs():
    # nothing to check: no rooted poset has 0 points
    with pytest.raises(ParameterOutOfRange):
        run_scenario("sobolev-width", {"size": 0})
    # the triangle bw(n) <-> subframe(F(n+1)) is stated for n >= 1
    with pytest.raises(ParameterOutOfRange):
        run_scenario("bw-subframe-triangle", {"size": 3, "ns": (0,)})


def test_rn_closure_refuses_size_0(capsys):
    # no member has 0 points; the one-point member starts at size 1
    for n in range(4):
        assert scenarios.rn_members(0, n) == []
        assert [p.n for p in scenarios.rn_members(1, n)] == [1]
    with pytest.raises(ParameterOutOfRange, match="has no instances"):
        run_scenario("rn-closure", {"size": 0})
    assert main(["verify", "rn-closure", "--param", "size=0"]) == 2
    assert "rn-closure has no instances" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sobolev-width", "bw-subframe-triangle"])
@pytest.mark.parametrize("ns", [(), []])
def test_run_scenario_rejects_an_empty_ns(name, ns):
    # no n means no axiom: every instance would pass with 0 work units
    with pytest.raises(ParameterOutOfRange):
        run_scenario(name, {"size": 4, "ns": ns})


def _cli_run(*args):
    """ipckit's CLI run in a fresh interpreter on the repo's src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "ipckit.cli", *args],
                          env=env, capture_output=True, text=True, timeout=60)


def test_cli_verify_honours_the_enumeration_cap():
    for args in (
        # size 10 asks for the rooted posets of 9 and 10 points, past the
        # cap that ipckit enumerate applies; unbounded, this ran for minutes
        ["kg-structure", "--size", "10"],
        # the unrooted scenarios, whose enumerate_posets has no cap
        ["godel-transfer", "--size", "9"],
        ["jankov-oracle", "--param", "host_size=9"],
        ["duality-counts", "--param", "size=9"],
        ["duality-counts", "--param", "dual_size=9"],
    ):
        done = _cli_run("verify", *args, "--budget", "10")
        assert done.returncode == 3, args
        assert "size 9 exceeds enumeration cap 8" in done.stderr, args
        assert done.stdout == "", args


def test_cli_verify_duality_counts_names_the_algebra_caps():
    # an n-point antichain has 2**n upsets: past a cap the run is refused
    # before any instance, with the cap named and no report; with no
    # budget set it once printed status budget and 0 work units
    for key, n, cap in (("dual_size", 7, "algebra cap 64"),
                        ("size", 5, "subalgebra cap 16"),
                        ("size", 7, "algebra cap 64")):
        done = _cli_run("verify", "duality-counts", "--param", f"{key}={n}")
        assert done.returncode == 3, key
        assert done.stderr == (f"budget exceeded: {key} {n} gives up to {2 ** n} upsets "
                               f"(an antichain of {n} points), past {cap}\n"), key
        assert done.stdout == "", key


def test_duality_counts_refuses_before_enumerating(monkeypatch):
    # the enumeration cap, then the algebra caps, are checked before any
    # poset is enumerated: dual_size 8 once spent 1.6 s enumerating
    # posets of up to 8 points before its algebra cap refused it
    calls, enumerate_posets = [], scenarios.enumerate_posets
    monkeypatch.setattr(scenarios, "enumerate_posets",
                        lambda n: calls.append(n) or enumerate_posets(n))
    for key, n, message in (("dual_size", 8, "past algebra cap 64"),
                            ("size", 5, "past subalgebra cap 16"),
                            ("size", 7, "past algebra cap 64"),
                            ("size", 9, "size 9 exceeds enumeration cap 8"),
                            ("dual_size", 9, "size 9 exceeds enumeration cap 8")):
        with pytest.raises(BudgetExceeded, match=message):
            run_scenario("duality-counts", {key: n})
    assert calls == []
    run_scenario("duality-counts", {"size": 1, "dual_size": 2})
    assert calls == [0, 1, 0, 1, 2]


def test_benchmark_workload_params_are_accepted(monkeypatch):
    # every parameter set perfbench/workloads.py runs passes the checks
    # run_scenario makes before it builds any instance
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for @dataclass
    spec.loader.exec_module(workloads)
    runs = [s for w in workloads.WORKLOADS.values() for s in w.scenarios]
    assert runs
    for s in runs:
        merged = scenario_params(s.name, s.params)
        assert {k: merged[k] for k in s.params} == s.params


@pytest.mark.parametrize("argv", [
    ["verify", "sobolev-width", "--size", "3", "--param", "ns=3"],
    ["verify", "sobolev-width", "--size", "3", "--param", "bogus=3"],
    ["verify", "sobolev-width", "--param", "size=three"],
    ["verify", "sobolev-width", "--param", "size"],
    ["verify", "jankov-oracle", "--size", "3"],
    ["verify", "ym-rigidity", "--size", "3"],
    ["verify", "pm-constructions", "--size", "3"],
    ["verify", "sobolev-width", "--size", "-3"],
    ["verify", "sobolev-width", "--size", "0"],
    ["verify", "rn-closure", "--size", "5", "--param", "n=-1"],
    ["enumerate", "--size", "0"],
    ["enumerate", "--size", "3", "--cap", "-1"],
    ["verify", "sobolev-width", "--budget", "-1"],
    ["verify", "sobolev-width", "--max-counterexamples", "-1"],
    ["verify", "sobolev-width", "--jobs", "0"],
    ["verify", "sobolev-width", "--jobs", "-1"],
    ["enumerate", "--size", "3", "--max-width", "0"],
    ["enumerate", "--size", "3", "--max-width", "-1"],
])
def test_cli_verify_rejects_bad_params(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["check", "modal-check", "jankov", "subframe", "pmorphism"])
def test_cli_file_commands_reject_negative_budget(tmp_path, capsys, command):
    # the files load and the second argument is valid, so only the budget is at fault
    path = tmp_path / "f2.json"
    export_poset(F2, "json", path)
    second = "p0" if command.endswith("check") else str(path)
    assert main([command, str(path), second, "--budget", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_enumerate_budget(capsys):
    assert main(["enumerate", "--size", "9"]) == 3
    capsys.readouterr()
