"""Identity digests: one sha256 line per output that a refactoring must
keep byte-identical.

Run it on two checkouts and diff the output, or check a checkout
against the committed digests of the tree it should match:

    python tests/identity.py > after.txt
    python tests/identity.py --check tests/identity.sha256

--check prints each line whose digest differs from the file's, or that
only one side has, and exits 1 if there is one.

The items are the reports of the twelve scenarios at their defaults under
several budgets, the benchmark workloads' scenarios with their worker
counts, kg-structure at size 8 and godel-transfer with two workers, the
closure-family members, the ``ipckit enumerate`` output, the syntactic
splitting formulas, the E-partition lists, and the ``ipckit catalog``
output (the key list, every fixed key, samples of each parameterised
family, and the errors of keys out of range) with the ladder segments
T(0..24).  Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ipckit.axioms import jankov_syntactic  # noqa: E402
from ipckit.catalog import catalog_keys, ladder_top_segment  # noqa: E402
from ipckit.cli import main as cli_main  # noqa: E402
from ipckit.formulas import pretty  # noqa: E402
from ipckit.morphisms import epartitions  # noqa: E402
from ipckit.poset import enumerate_posets, enumerate_rooted  # noqa: E402
from ipckit.scenarios import rn_members, run_scenario, scenario_names  # noqa: E402

BUDGETS = (None, 1, 37, 1000, 50000)


def _line(name, text):
    return f"{hashlib.sha256(text.encode()).hexdigest()}  {name}"


def _cli(argv):
    """The exit code, stdout and stderr of one ipckit call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def _catalog(keys):
    """Each key's ``ipckit catalog`` call: the key and exit code, then
    stdout and stderr."""
    text = ""
    for key in keys:
        code, out, err = _cli(["catalog", key])
        text += f"{key} {code}\n{out}{err}"
    return text


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def digests():
    """The digest lines, one per output, in order."""
    for name in scenario_names():
        for budget in BUDGETS:
            yield _line(f"report {name} budget={budget}",
                        run_scenario(name, budget=budget).to_json())
    for wname, w in sorted(_workloads().items()):
        for s in w.scenarios:
            yield _line(f"workload {wname} {s.name} {s.params} jobs={w.jobs}",
                        run_scenario(s.name, s.params, jobs=w.jobs).to_json())
    yield _line("report kg-structure size=8 jobs=2",
                run_scenario("kg-structure", {"size": 8}, jobs=2).to_json())
    yield _line("report godel-transfer jobs=2",
                run_scenario("godel-transfer", jobs=2).to_json())
    for size in range(1, 10):
        for n in range(4):
            yield _line(f"rn_members {size} {n}",
                        repr([(p.elements, p.up) for p in rn_members(size, n)]))
    for size in range(1, 9):
        for w in (None, 1, 2, 3):
            argv = ["enumerate", "--size", str(size)]
            if w is not None:
                argv += ["--max-width", str(w)]
            code, out, _ = _cli(argv)
            yield _line(" ".join(argv), f"{code}\n{out}")
    yield _line("jankov_syntactic rooted 1..8", "\n".join(
        pretty(jankov_syntactic(p)) for n in range(1, 9) for p in enumerate_rooted(n)))
    yield _line("epartitions 0..7", "\n".join(
        repr(epartitions(p)) for n in range(8) for p in enumerate_posets(n)))
    code, out, _ = _cli(["catalog", "--list"])
    yield _line("catalog --list", f"{code}\n{out}")
    yield _line("catalog fixed keys", _catalog(
        k for k in catalog_keys() if re.search(r"\(\d+\)$", k)))
    for family, params in (("F", range(1, 6)), ("L", range(12)),
                           ("C", range(5)), ("Y", range(1, 5))):
        yield _line(f"catalog {family}({params.start}..{params.stop - 1})",
                    _catalog(f"{family}({i})" for i in params))
    yield _line("catalog Gn_trunc(1..3, 1|8|12)", _catalog(
        f"Gn_trunc({n},{nlv})" for n in range(1, 4) for nlv in (1, 8, 12)))
    yield _line("catalog Xm_trunc(1|2|4, 3|4, 1|8)", _catalog(
        f"Xm_trunc({m},{n},{nlv})" for m in (1, 2, 4) for n in (3, 4) for nlv in (1, 8)))
    yield _line("ladder_top_segment 0..24", repr(
        [(p.elements, p.up, p.name) for p in map(ladder_top_segment, range(25))]))
    yield _line("catalog errors", _catalog([
        "K(0)", "K(8)", "Y(0)", "Xm_trunc(0,2,0)", "Xm_trunc(1,2,0)",
        "Xm_trunc(0,3,1)", "Gn_trunc(0,1)", "Gn_trunc(1,0)", "F(0)"]))


def differing(want, got):
    """The names of the digest lines that differ between the two lists of
    lines, or that only one of them has, in want's order, then got's."""
    old = {name: digest for digest, name in (line.split("  ", 1) for line in want)}
    new = {name: digest for digest, name in (line.split("  ", 1) for line in got)}
    return [name for name in {**old, **new} if old.get(name) != new.get(name)]


def main(argv=None):
    """Print the digest lines, or with --check FILE compare them with the
    file's: 1 if a line differs, else 0."""
    args = sys.argv[1:] if argv is None else argv
    if not args:
        for line in digests():
            print(line, flush=True)
        return 0
    if len(args) != 2 or args[0] != "--check":
        print("usage: identity.py [--check FILE]", file=sys.stderr)
        return 2
    want = Path(args[1]).read_text().splitlines()
    got = list(digests())
    bad = differing(want, got)
    for name in bad:
        print(f"differs: {name}")
    print(f"{len(bad)} lines differ; {len(got)} computed, {len(want)} in {args[1]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
