"""Scenario benchmark for ipckit: time to verdict, end to end and per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ipckit is imported from ``src``.
Each repetition is a fresh interpreter (``child.py``) that imports ipckit,
warms the enumeration caches and runs the workload's scenarios, the way
``ipckit verify`` runs.  Repetitions run one at a time until ``--seconds``
is spent (at least MIN_PAIRS pairs); the metrics are medians over them.
Times are in reference seconds: wall time scaled by the machine speed
sampled during it (``calibrate.py``), since a shared machine's speed
wanders.  The seed draws one scenario order per pair of repetitions,
which run it forwards and backwards.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs untraced and traced repetitions in pairs and prints
the per-layer metrics.  ``--workload all`` runs every workload in turn.

Every repetition is gated: each report must pass with its recorded
``instances_checked``, and repeat byte for byte across repetitions; a
traced report must equal its untraced twin byte for byte, and the rows
and nodes the tracer read off the work meters must equal the report's
``work_units``.  A failed gate counts the scenario's instances as failed.
The last line of output is one JSON object: correct, attempted, failed
(instances) and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import layer_metrics  # noqa: E402
from workloads import SCENARIO_NAMES, WORKLOADS  # noqa: E402

MIN_PAIRS = 2        # untraced repetition pairs per --trace 0 run, at least
SETUP_SAMPLES = 5    # cold set-ups per run at least, and at least
SETUP_TOTAL_S = 2.0  # seconds of them in all; set-up-only processes
SETUP_MAX = 40       # top the samples up, to SETUP_MAX at most
RUN_LIMIT = 150      # seconds: no repetition starts that would end later
DEADLINE = 170       # seconds: every child of a workload has ended by then


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(ROOT / ".perfbench_tmp")
    return env


def run_child(workload, mode, trace, seed, deadline, reverse=False):
    """One repetition in a fresh interpreter; returns its JSON output."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--trace", str(trace)]
    if reverse:
        cmd.append("--reverse")
    # own session, so a timeout can stop the pool workers too
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        return _result(proc, deadline)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


def _result(proc, deadline):
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"a repetition failed:\n{err[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    if Path(result["ipckit_file"]).parent != ROOT / "src" / "ipckit":
        raise BenchError(f"imported ipckit from {result['ipckit_file']}, not src/")
    return result


def failed_instances(wl, reports, reference=None):
    """Instances of each scenario not checked with a pass."""
    failed = {}
    for sc in wl.scenarios:
        text = reports.get(sc.name)
        if text is None:
            failed[sc.name] = sc.instances
            continue
        rep = json.loads(text)
        if reference is not None and text != reference[sc.name]:
            failed[sc.name] = sc.instances  # reports must repeat byte for byte
        elif rep["status"] != "pass" or rep["counterexamples"]:
            failed[sc.name] = sc.instances
        else:
            failed[sc.name] = abs(sc.instances - rep["instances_checked"])
    return failed


def _repeat(seconds, step, min_reps, start):
    """Call step() until seconds are spent, at least min_reps times."""
    took = []
    while True:
        t0 = time.perf_counter()
        step()
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        nxt = statistics.median(took)
        if elapsed + nxt > RUN_LIMIT:
            break
        if len(took) >= min_reps and elapsed + nxt > seconds:
            break


def measure(wl, seed, seconds):
    """End-to-end run: medians over untraced repetitions."""
    start = time.perf_counter()
    deadline = start + DEADLINE
    orders = random.Random(seed)
    reps = []

    def step():
        # an order and its reverse: every scenario runs as often before
        # each other one, so order effects on cache warmth and peak memory
        # weigh the same in every run
        order = orders.randrange(2**31)
        for reverse in (False, True):
            reps.append(run_child(wl.name, "verify", 0, order, deadline, reverse))

    _repeat(seconds, step, MIN_PAIRS, start)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_MAX and (len(setups) < SETUP_SAMPLES
                                       or sum(setups) < SETUP_TOTAL_S):
        setups.append(run_child(wl.name, "setup", 0, seed, deadline)["setup_s"])
    reference = reps[0]["reports"]
    failed = sum(sum(failed_instances(wl, r["reports"], reference).values())
                 for r in reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "verify_s": statistics.median(r["verify_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return reps, len(reps) * wl.instances, failed, metrics


def measure_traced(wl, seed, seconds):
    """Per-layer run: untraced and traced repetitions in pairs."""
    start = time.perf_counter()
    deadline = start + DEADLINE
    orders = random.Random(seed)
    pairs = []

    def step():
        order = orders.randrange(2**31)  # the same order for both of a pair
        pairs.append(tuple(run_child(wl.name, "verify", trace, order, deadline)
                           for trace in (0, 1)))

    _repeat(seconds, step, 1, start)
    plain, traced = pairs[0]
    print(f"{wl.name}: rows and nodes charged to the scenarios' meters "
          f"{sum(traced['metered'].values())}, reports' work_units "
          f"{sum(json.loads(r)['work_units'] for r in traced['reports'].values())}")
    failed = 0
    for plain, traced in pairs:
        bad = failed_instances(wl, plain["reports"])
        for sc in wl.scenarios:
            report = traced["reports"][sc.name]
            units = json.loads(report)["work_units"]
            unreconciled = traced["metered"][sc.name] != units
            if wl.jobs > 1 and not traced["workers_traced"]:
                print(f"note: {sc.name}: pool workers not traced, "
                      "work units not reconciled")
                unreconciled = False
            if report != plain["reports"][sc.name] or unreconciled:
                bad[sc.name] = sc.instances
        failed += sum(bad.values())

    per_rep = []
    for plain, traced in pairs:
        m = layer_metrics(traced["trace"])
        for name in SCENARIO_NAMES:
            report = traced["reports"].get(name)
            m[f"scenarios.{name}.s"] = traced["scenario_s"].get(name, 0.0)
            m[f"scenarios.{name}.work_units"] = (
                json.loads(report)["work_units"] if report else 0)
        m["caches.entries"] = traced["cache_entries"]
        per_rep.append(m)
    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
    metrics["wall.setup_s"] = statistics.median(p["setup_wall_s"] for p, _ in pairs)
    metrics["wall.verify_s"] = statistics.median(p["verify_wall_s"] for p, _ in pairs)
    metrics["gauge.task_s"] = statistics.median(p["gauge_task_s"] for p, _ in pairs)
    metrics["trace_overhead_frac"] = (
        statistics.median(t["verify_s"] for _, t in pairs)
        / statistics.median(p["verify_s"] for p, _ in pairs) - 1)
    reps = [p for p, _ in pairs]
    return reps, len(pairs) * wl.instances, failed, metrics


def _git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ipckit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name, seed, seconds, trace, spec):
    wl = WORKLOADS[name]
    if trace:
        reps, attempted, failed, values = measure_traced(wl, seed, seconds)
        wanted = spec["per_layer"]
    else:
        reps, attempted, failed, values = measure(wl, seed, seconds)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    env = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "repetitions": len(reps),
        "python": reps[0]["python"], "kernel": reps[0]["kernel"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": _git_revision(), "src_sha256": _src_digest(),
        "instances": {k: json.loads(v)["instances_checked"]
                      for k, v in sorted(reps[0]["reports"].items())},
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{name}: {len(reps)} repetitions, untraced verify_s "
          + " ".join(f"{r['verify_s']:.3f}" for r in reps) + "; wall "
          + " ".join(f"{r['verify_wall_s']:.3f}" for r in reps))
    if trace:
        shares = {k[6:]: round(v, 3) for k, v in values.items() if k.startswith("share.")}
        print(f"{name}: traced scan rows {values['semantics.int.rows']:.0f} int + "
              f"{values['semantics.modal.rows']:.0f} modal, search nodes "
              f"{values['morphisms.pmorph.nodes']:.0f}")
        incl = {k[11:]: round(v, 3) for k, v in values.items()
                if k.startswith("share_incl.")}
        top = max(incl, key=incl.get)
        print(f"{name}: self-time shares {json.dumps(shares)}")
        print(f"{name}: inclusive shares {json.dumps(incl)}; dominant {top}, "
              f"expected {wl.dominant}; trace overhead "
              f"{values['trace_overhead_frac']:+.3f}")
    else:
        print(f"{name}: setup_s={values['setup_s']:.4f} verify_s={values['verify_s']:.4f} "
              f"peak_rss_mb={values['peak_rss_mb']:.2f} "
              f"failed_frac={failed / attempted:.4f} ({failed}/{attempted} instances)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ipckit" / "__init__.py").is_file():
        print("perfbench: no src/ipckit here; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "ipckit")],
                   check=True, stdout=subprocess.DEVNULL)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, spec)
                   for n in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            tmp.rmdir()
        except OSError:
            pass
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
