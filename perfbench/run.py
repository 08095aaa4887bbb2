#!/usr/bin/env python3
"""The CESRM simulator benchmark: one command per workload run.

    python3 perfbench/run.py --workload paper-traces --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload paper-traces --seed 42 --seconds 30 --trace 1

Run it from the root of a source checkout. It builds the pass
executable (perfbench/perfbench.ml) with dune, runs the workload's
passes, each in a fresh process, checks their outputs, prints every
metric by name with its unit, writes the full result under
perfbench/out/, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 is the timed run: tracing off, whole passes back to back
while the --seconds budget lasts (at least one; a pass is started
only if it is expected to end within the budget), end-to-end metrics
as medians over the passes. --trace 1 is the traced run: one untraced
reference pass (plus, on scale-flood, one sharded pass for the PDES
counters), then one traced pass that records spans and reports the
per-layer metrics. The exit code is 0 when every output check
holds, 1 when one fails, 2 when the checkout or the build is unusable
and 3 when the workload is vacuous. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = os.path.join("perfbench", "out")

WORKLOADS = ("paper-traces", "scale-flood", "steady-stream")

# Workloads with a sharded mode. Their timed passes run serially, in one
# process; their traced run adds one sharded pass, which gives the PDES
# counters and must reproduce the serial legs exactly.
SHARDED = ("scale-flood",)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "events_per_s": "1/s",
    "alloc_mb": "MB",
    "peak_heap_mb": "MB",
    "srm.recovery_p50_rtt": "rtt",
    "srm.recovery_tail_rtt": "rtt",
    "cesrm.recovery_p50_rtt": "rtt",
    "cesrm.recovery_tail_rtt": "rtt",
    "srm.overhead_crossings": "count",
    "cesrm.overhead_crossings": "count",
    "srm.makespan_max_s": "sim_s",
    "cesrm.makespan_max_s": "sim_s",
}

# Machine-dependent end-to-end metrics: medians over a run's passes.
# The others are simulated, and must be equal on every pass of a run.
HOST = ("wall_s", "setup_s", "cpu_s", "events_per_s", "alloc_mb", "peak_heap_mb")

# Printed and recorded, but not gated: failed_ratio is 0 on every run
# that passes its checks (failures reach the gate through the result
# line's "failed"/"attempted"); the tail percentile and sample count
# qualify the tail metrics; the realized losses against the trace
# rows' budget show that the workload is valid.
END_TO_END_EXTRA = {
    "failed_ratio": "ratio",
    "mtrace.realized_losses": "count",
    "mtrace.loss_budget_ratio": "ratio",
    "srm.recovery_tail_pct": "%",
    "srm.recoveries": "count",
    "cesrm.recovery_tail_pct": "%",
    "cesrm.recoveries": "count",
}

PER_LAYER = {
    "mtrace.synth_s": "s",
    "mtrace.realized_losses": "count",
    "mtrace.loss_budget_ratio": "ratio",
    "inference.attribution_s": "s",
    "harness.run_s.srm": "s",
    "harness.run_s.cesrm": "s",
    "sim.events_fired": "count",
    "sim.events_cancelled": "count",
    "sim.wheel_inserts": "count",
    "sim.wheel_cascades": "count",
    "sim.heap_max_size": "count",
    "sim.ns_per_event": "ns",
    "sim.ns_per_event_heap": "ns",
    "net.packets_delivered": "count",
    "net.data_crossings": "count",
    "net.retransmission_crossings": "count",
    "net.control_crossings_mc": "count",
    "net.control_crossings_uc": "count",
    "net.session_crossings": "count",
    "net.ns_per_delivery": "ns",
    "net.routes_build_s": "s",
    "srm.losses_detected": "count",
    "srm.requests": "count",
    "srm.replies": "count",
    "srm.sessions": "count",
    "srm.replies_per_recovery": "ratio",
    "cesrm.exp_requests": "count",
    "cesrm.exp_replies": "count",
    "cesrm.cache_hits": "count",
    "cesrm.cache_evictions": "count",
    "cesrm.expedited_success": "ratio",
    "cesrm.ns_per_cache_op": "ns",
    "pdes.windows": "count",
    "pdes.null_messages": "count",
    "pdes.cross_shard_packets": "count",
    "pdes.barrier_wait_s": "s",
    "pdes.imbalance": "ratio",
    "steady.ticks": "count",
    "steady.floor": "count",
    "steady.peak_heap_mb": "MB",
    "steady.heap_growth": "ratio",
    "gc.minor_collections": "count",
    "gc.major_collections": "count",
    "gc.promoted_mb": "MB",
    "gc.bytes_per_event": "B",
    "obs.trace_recorded": "count",
    "obs.trace_dropped": "count",
}

# Printed and recorded, but not gated: the tracing overhead is a single
# noisy pair of passes; the others exist on scale-flood only.
PER_LAYER_EXTRA = {
    "obs.trace_overhead_s": "s",
    "pdes.sharded_wall_s": "s",
    "mtrace.realized_losses_at_seed": "count",
}

# Per-layer figures taken from the untraced reference pass of a traced
# run: the leg times that make up wall_s.
FROM_REFERENCE = ("harness.run_s.srm", "harness.run_s.cesrm")

# Per-layer figures taken from the sharded pass, where there is one.
FROM_SHARDED = (
    "pdes.windows",
    "pdes.null_messages",
    "pdes.cross_shard_packets",
    "pdes.barrier_wait_s",
    "pdes.imbalance",
)

PASS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class Unusable(Exception):
    """The checkout, the build or a pass cannot produce a result."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_process(argv, timeout, env=None):
    """Run argv in its own process group; kill the whole group (shard
    workers included) on timeout. Returns (code, stdout, stderr)."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True, env=env
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Unusable("%s timed out after %d s" % (" ".join(argv), timeout))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out, err


def check_checkout():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            raise Unusable("not a source checkout: %s is missing (run from the repository root)" % path)
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        declared = {m["name"] for m in spec["end_to_end"]} | {m["name"] for m in spec["per_layer"]}
        if declared != set(END_TO_END) | set(PER_LAYER):
            raise Unusable("BENCHMARK.json metrics disagree with perfbench/run.py")


def build():
    t0 = time.monotonic()
    # dune's shared cache lives outside the checkout; keep the build in it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        code, out, err = run_process(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"], BUILD_TIMEOUT_S, env=env
        )
    except FileNotFoundError:
        raise Unusable("dune is not installed")
    if code != 0:
        raise Unusable("build failed:\n" + out + err)
    log("perfbench: built in %.1f s" % (time.monotonic() - t0))


def run_pass(workload, seed, mode, run_id):
    code, out, err = run_process(
        [EXE, "--workload", workload, "--seed", str(seed), "--mode", mode, "--out", OUT, "--run-id", run_id],
        PASS_TIMEOUT_S,
    )
    if err:
        sys.stderr.write(err)
    if code == 3:
        raise Unusable("vacuous workload", code=3)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise Unusable("%s pass of %s exited with %d" % (mode, workload, code))
    return json.loads(lines[-1])


def failed_checks(p):
    return ["%s: %s" % (leg["leg"], c) for leg in p["legs"] for c in leg["failed_checks"]]


def fingerprints(p):
    return [(leg["leg"], leg["fingerprint"]) for leg in p["legs"]]


def simulated(p):
    return {k: v for k, v in p["end_to_end"].items() if k not in HOST}


def timed_run(workload, seed, seconds, run_id):
    passes = []
    t0 = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, "timed", run_id))
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    first = passes[0]
    problems = [c for p in passes for c in failed_checks(p)]
    for p in passes[1:]:
        if fingerprints(p) != fingerprints(first) or simulated(p) != simulated(first):
            problems.append("passes of one seed disagree on the simulated results")
    metrics = dict(simulated(first))
    for name in ("mtrace.realized_losses", "mtrace.loss_budget_ratio"):
        metrics[name] = first["per_layer"][name]
    for name in HOST:
        metrics[name] = statistics.median(p["end_to_end"][name] for p in passes)
    return {
        "passes": passes,
        "metrics": metrics,
        "attempted": first["attempted"],
        "failed": max(p["failed"] for p in passes),
        "problems": problems,
    }


def traced_run(workload, seed, run_id):
    reference = run_pass(workload, seed, "timed", run_id)
    passes = [reference]
    if workload in SHARDED:
        sharded = run_pass(workload, seed, "sharded", run_id)
        passes.append(sharded)
    traced = run_pass(workload, seed, "traced", run_id)
    passes.append(traced)
    problems = [c for p in passes for c in failed_checks(p)]
    # The traced and the sharded legs must reproduce the serial
    # untraced ones exactly.
    if fingerprints(traced) != fingerprints(reference):
        problems.append("traced legs differ from the untraced reference legs")
    metrics = dict(traced["per_layer"])
    for name in FROM_REFERENCE:
        metrics[name] = reference["per_layer"][name]
    if workload in SHARDED:
        if fingerprints(sharded) != fingerprints(reference):
            problems.append("sharded legs differ from the serial reference legs")
        for name in FROM_SHARDED:
            metrics[name] = sharded["per_layer"][name]
        metrics["pdes.sharded_wall_s"] = sharded["end_to_end"]["wall_s"]
    metrics["obs.trace_overhead_s"] = traced["end_to_end"]["wall_s"] - reference["end_to_end"]["wall_s"]
    return {
        "passes": passes,
        "metrics": metrics,
        "attempted": traced["attempted"],
        "failed": max(p["failed"] for p in passes),
        "problems": problems,
    }


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        return head.stdout.strip() or None
    except OSError:
        return None


def source_digest():
    """sha256 over the sources the pass executable is built from, for
    checkouts that are not git repositories."""
    h = hashlib.sha256()
    files = ["dune-project", "dune"]
    for top in ("lib", "perfbench"):
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "out")
            files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def show(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        check_checkout()
        build()
        os.makedirs(OUT, exist_ok=True)
        run_id = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace, int(time.time()))
        if args.trace:
            run = traced_run(args.workload, args.seed, run_id)
            gated, extra = PER_LAYER, PER_LAYER_EXTRA
        else:
            run = timed_run(args.workload, args.seed, args.seconds, run_id)
            gated, extra = END_TO_END, END_TO_END_EXTRA
    except Unusable as e:
        log("perfbench: " + str(e))
        return e.code
    metrics = run["metrics"]
    correct = not run["problems"] and run["failed"] == 0
    print("workload %s  seed %d  %s run  %d pass(es)" % (
        args.workload, args.seed, "traced" if args.trace else "timed", len(run["passes"])))
    for name, unit in list(gated.items()) + list(extra.items()):
        if name in metrics:
            print("  %-32s %14s %s" % (name, show(metrics[name]), unit))
    for problem in run["problems"]:
        print("  FAILED CHECK: " + problem)
    result = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "run_id": run_id,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "nproc": len(os.sched_getaffinity(0)),
            "ocaml_version": run["passes"][0]["ocaml_version"],
            "python_version": sys.version.split()[0],
        },
        "correct": correct,
        "problems": run["problems"],
        "metrics": {k: {"value": v, "unit": {**gated, **extra}.get(k)} for k, v in metrics.items()},
        "passes": run["passes"],
    }
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print("  (full result in %s)" % path)
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in gated.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
