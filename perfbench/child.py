"""One repetition of a workload, in a fresh interpreter as ``ipckit verify``
runs.  ``run.py`` starts it with ``src`` on PYTHONPATH.

Set-up is timed from ``import ipckit`` to the end of warming
``enumerate_posets(0..k)``; ``--mode verify`` then runs the workload's
scenarios in the seed's order.  Every span is reported twice: as wall
time (``*_wall_s``) and in reference seconds, scaled by the machine speed
that ``calibrate.Gauge`` sampled during that span.  With ``--trace 1`` the
tracer wraps the layers before set-up and the output carries its stats.
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from calibrate import Gauge
from workloads import WORKLOADS


def _cache_entries(ipckit_modules):
    seen = set()
    total = 0
    for mod in ipckit_modules:
        for value in vars(mod).values():
            info = getattr(value, "cache_info", None)
            if callable(info) and id(value) not in seen:
                seen.add(id(value))
                total += info().currsize
    return total


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="picks the scenario order")
    ap.add_argument("--reverse", action="store_true", help="runs that order backwards")
    ap.add_argument("--mode", choices=("setup", "verify"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with Gauge() as gauge:
        t0 = time.perf_counter()
        import ipckit
        from ipckit import poset, scenarios

        if tracer is not None:
            tracer.install()
        for k in range(wl.enum_upto + 1):
            poset.enumerate_posets(k)  # looked up here, so the tracer sees it
        setup_wall = time.perf_counter() - t0

        out = {
            "setup_wall_s": setup_wall,
            "setup_s": setup_wall * gauge.scale(0),
            "ipckit_file": os.path.abspath(ipckit.__file__),
            "kernel": getattr(ipckit, "KERNEL", None),
            "python": sys.version.split()[0],
        }
        if args.mode == "verify":
            seconds, wall, reports, metered = {}, {}, {}, {}
            for sc in wl.ordered(args.seed, args.reverse):
                before = tracer.metered() if tracer else 0
                mark = gauge.mark()
                s0 = time.perf_counter()
                if tracer is None:
                    report = scenarios.run_scenario(sc.name, sc.params, jobs=wl.jobs)
                else:
                    report = tracer.span("scenarios.driver", scenarios.run_scenario,
                                         sc.name, sc.params, jobs=wl.jobs)
                wall[sc.name] = time.perf_counter() - s0
                seconds[sc.name] = wall[sc.name] * gauge.scale(mark)
                reports[sc.name] = report.to_json()
                if tracer is not None:
                    metered[sc.name] = tracer.metered() - before
            out.update(
                verify_s=sum(seconds.values()),
                verify_wall_s=sum(wall.values()),
                scenario_s=seconds,
                scenario_wall_s=wall,
                reports=reports,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
            if tracer is not None:
                out.update(metered=metered, workers_traced=bool(tracer.worker_stats))
    out["gauge_task_s"] = statistics.median(gauge.samples)
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.totals()
    out["cache_entries"] = _cache_entries(
        m for name, m in list(sys.modules.items())
        if name == "ipckit" or name.startswith("ipckit."))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
