"""Identity digests: one sha256 line per output that a refactoring must
keep byte-identical.

Run it on two checkouts and diff the output:

    python tests/identity.py > after.txt

The items are the reports of the twelve scenarios at their defaults under
several budgets, the benchmark workloads' scenarios with their worker
counts, kg-structure at size 8 and godel-transfer with two workers, the
closure-family members, the ``ipckit enumerate`` output, the syntactic
splitting formulas and the E-partition lists.  Standard library only;
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from ipckit.axioms import jankov_syntactic  # noqa: E402
from ipckit.cli import main as cli_main  # noqa: E402
from ipckit.formulas import pretty  # noqa: E402
from ipckit.morphisms import epartitions  # noqa: E402
from ipckit.poset import enumerate_posets, enumerate_rooted  # noqa: E402
from ipckit.scenarios import rn_members, run_scenario, scenario_names  # noqa: E402

BUDGETS = (None, 1, 37, 1000, 50000)


def _line(name, text):
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}", flush=True)


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look the module up
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def _poset(member):
    # a member may come as a (poset, chain parameter) pair in older trees
    return member[0] if isinstance(member, tuple) else member


def main():
    for name in scenario_names():
        for budget in BUDGETS:
            _line(f"report {name} budget={budget}",
                  run_scenario(name, budget=budget).to_json())
    for wname, w in sorted(_workloads().items()):
        for s in w.scenarios:
            _line(f"workload {wname} {s.name} {s.params} jobs={w.jobs}",
                  run_scenario(s.name, s.params, jobs=w.jobs).to_json())
    _line("report kg-structure size=8 jobs=2",
          run_scenario("kg-structure", {"size": 8}, jobs=2).to_json())
    _line("report godel-transfer jobs=2",
          run_scenario("godel-transfer", jobs=2).to_json())
    for size in range(1, 10):
        for n in range(4):
            members = [_poset(m) for m in rn_members(size, n)]
            _line(f"rn_members {size} {n}", repr([(p.elements, p.up) for p in members]))
    for size in range(1, 9):
        for w in (None, 1, 2, 3):
            argv = ["enumerate", "--size", str(size)]
            if w is not None:
                argv += ["--max-width", str(w)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            _line(" ".join(argv), f"{code}\n{out.getvalue()}")
    _line("jankov_syntactic rooted 1..8", "\n".join(
        pretty(jankov_syntactic(p)) for n in range(1, 9) for p in enumerate_rooted(n)))
    _line("epartitions 0..7", "\n".join(
        repr(epartitions(p)) for n in range(8) for p in enumerate_posets(n)))


if __name__ == "__main__":
    main()
