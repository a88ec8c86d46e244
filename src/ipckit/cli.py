"""Command-line interface.

Exit codes: 0 pass/true, 1 fail/counterexample, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as pio
from .axioms import validates_jankov, validates_subframe
from .budget import WorkMeter
from .catalog import catalog_get, catalog_keys
from .errors import BudgetExceeded, IpckitError
from .formulas import godel_translate, parse, pretty
from .morphisms import find_pmorphism
from .poset import enumerate_rooted
from .report import render_report
from .scenarios import run_scenario, scenario_defaults, scenario_names
from .semantics import is_valid, is_valid_modal

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


def _at_least(low):
    """argparse type of an int no less than low: 0 for a budget, cap or
    counterexample limit, 1 for a job count or width bound."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value
    return integer


# the yes/no commands: help, the host poset's argument, the second
# argument and its reader, the check, and the words for yes and no
_CHECKS = {
    "check": ("intuitionistic validity on a poset", "poset", "formula", parse,
              is_valid, ("valid", "refuted")),
    "modal-check": ("modal validity on a poset frame", "poset", "formula", parse,
                    is_valid_modal, ("valid", "refuted")),
    "jankov": ("does host validate the splitting formula of target", "host", "target",
               pio.import_poset, validates_jankov, ("validates", "refutes")),
    "subframe": ("does host validate the subframe formula of target", "host", "target",
                 pio.import_poset, validates_subframe, ("validates", "refutes")),
}


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="ipckit",
        description="finite intuitionistic/modal frame workbench",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, (text, host, second, *_) in _CHECKS.items():
        c = sub.add_parser(name, help=text)
        c.add_argument(host)
        c.add_argument(second)
        c.add_argument("--budget", type=_at_least(0), default=None)

    c = sub.add_parser("pmorphism", help="search for a p-morphism src -> dst")
    c.add_argument("src")
    c.add_argument("dst")
    c.add_argument("--surjective", action="store_true")
    c.add_argument("--budget", type=_at_least(0), default=None)

    c = sub.add_parser("enumerate", help="rooted posets up to isomorphism")
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--max-width", type=_at_least(1), default=None)
    c.add_argument("--cap", type=_at_least(0), default=None,
                   help="override the default enumeration size cap")

    c = sub.add_parser("catalog", help="print a named poset as JSON")
    c.add_argument("key", nargs="?")
    c.add_argument("--list", action="store_true", help="list known keys")

    c = sub.add_parser("translate", help="modal companion of an intuitionistic formula")
    c.add_argument("formula")

    c = sub.add_parser("verify", help="run a named verification scenario")
    c.add_argument("scenario", choices=scenario_names())
    c.add_argument("--size", type=int, default=None)
    c.add_argument("--budget", type=_at_least(0), default=None)
    c.add_argument("--jobs", type=_at_least(1), default=1)
    c.add_argument("--format", choices=("json", "text"), default="text")
    c.add_argument("--max-counterexamples", type=_at_least(0), default=10)
    c.add_argument(
        "--param", action="append", default=[],
        metavar="KEY=VALUE", help="extra scenario parameter (int value)")

    c = sub.add_parser("export", help="re-export a poset file as json or dot")
    c.add_argument("poset")
    c.add_argument("--format", choices=("json", "dot"), default="dot")
    c.add_argument("--out", default="-")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (IpckitError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    cmd = args.command

    if cmd in _CHECKS:
        _, host, second, read, check, (yes, no) = _CHECKS[cmd]
        ok = check(pio.import_poset(getattr(args, host)), read(getattr(args, second)),
                   meter=WorkMeter(limit=args.budget))
        print(yes if ok else no)
        return EXIT_PASS if ok else EXIT_FAIL

    if cmd == "pmorphism":
        meter = WorkMeter(limit=args.budget)
        pm = find_pmorphism(
            pio.import_poset(args.src), pio.import_poset(args.dst),
            surjective=args.surjective, meter=meter)
        if pm is None:
            print("none")
            return EXIT_FAIL
        print(json.dumps(pm.as_dict(), sort_keys=True))
        return EXIT_PASS

    if cmd == "enumerate":
        for p in enumerate_rooted(args.size, max_width=args.max_width,
                                  cap=args.cap):
            print(pio.poset_to_json(p))
        return EXIT_PASS

    if cmd == "catalog":
        if args.list:
            for key in catalog_keys():
                print(key)
            return EXIT_PASS
        if args.key is None:
            print("usage: ipckit catalog (KEY | --list)", file=sys.stderr)
            return EXIT_USAGE
        sys.stdout.write(pio.poset_text(catalog_get(args.key), "json"))
        return EXIT_PASS

    if cmd == "translate":
        print(pretty(godel_translate(parse(args.formula))))
        return EXIT_PASS

    if cmd == "export":
        p = pio.import_poset(args.poset)
        if args.out == "-":
            sys.stdout.write(pio.poset_text(p, args.format))
        else:
            pio.export_poset(p, args.format, args.out)
        return EXIT_PASS

    # verify
    params = {}
    if args.size is not None:
        params["size"] = args.size
    defaults = scenario_defaults(args.scenario)
    for kv in args.param:
        key, _, value = kv.partition("=")
        if key in defaults and not isinstance(defaults[key], int):
            print(f"--param cannot set {key!r}, which is not an int",
                  file=sys.stderr)
            return EXIT_USAGE
        try:
            params[key] = int(value)
        except ValueError:
            print(f"bad --param {kv!r}", file=sys.stderr)
            return EXIT_USAGE
    report = run_scenario(
        args.scenario, params=params, budget=args.budget, jobs=args.jobs,
        max_counterexamples=args.max_counterexamples)
    sys.stdout.write(render_report(report, args.format))
    if report.status == "pass":
        return EXIT_PASS
    if report.status == "budget":
        return EXIT_BUDGET
    return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
