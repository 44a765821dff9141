#!/usr/bin/env python3
"""Runs one workload of the muxwise simulator benchmark and prints its metrics.

    python3 perfbench/run.py --workload stream_short --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds perfbench_driver (the simulator
sources plus perfbench/driver.cc, Release) under .bench_build/perfbench,
then runs perfbench_driver repeatedly, one single-threaded process per
repetition, for --seconds seconds.

--trace 0 prints the end-to-end metrics: medians over the untraced
repetitions for wall-clock figures and set-up time, and the simulated SLO
figures from the exact latency populations of one traced run made before
the measured window. --trace 1 alternates untraced and traced
repetitions and prints the per-layer metrics of the traced ones, plus the
tracing overhead. Every repetition is checked (see README.md); the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full result, stamped with the machine
class, is also written under .bench_build/perfbench/out/ for compare.py.
"""

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
from statistics import median, quantiles
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Default and held-out seed per workload. A claimed gain must also hold on
# the held-out seed. stream_short with seed 1 is
# scenarios/nightly/streaming_1e6.json.
WORKLOADS = {
    "stream_short": {"default_seed": 1, "held_out_seed": 7},
    "conv_multiturn": {"default_seed": 1, "held_out_seed": 11},
    "fleet_burst": {"default_seed": 1, "held_out_seed": 13},
}

# The fidelity gate of the KV replay: its hit ratio must be within this of
# the engine pool's on the workloads that reuse prefixes.
REPLAY_HIT_TOLERANCE = 0.05
REPLAY_CHECKED = ("conv_multiturn", "fleet_burst")

MIN_REPS = 3
CHILD_TIMEOUT_S = 150

# Per-layer timings that are printed with their call count.
CALL_COUNTED = (
    "kv.acquire_ns", "kv.reserve_ns", "kv.commit_ns", "kv.release_ns",
    "llm.predict_prefill_ns", "llm.predict_decode_ns",
    "core.worst_case_decode_ns", "core.choose_decode_sms_ns",
    "serve.on_complete_ns", "route.dispatch_ns",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds perfbench_driver; returns its path."""
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_driver",
                  "-j", jobs])
    started = time.monotonic()
    with open(os.path.join(bdir, "build.log"), "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              env=env, cwd=ROOT).returncode != 0:
                out.flush()
                with open(os.path.join(bdir, "build.log")) as f:
                    log(f.read()[-4000:])
                raise SystemExit("perfbench: build failed (%s)" %
                                 " ".join(step))
    log("perfbench: build ready in %.1f s" % (time.monotonic() - started))
    return os.path.join(bdir, "perfbench_driver")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_stamp(child):
    """The machine class a result is valid for; compare.py refuses to
    compare results whose stamps differ."""
    stamp = {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": child["build"]["compiler"],
        "build_type": child["build"]["build_type"],
    }
    stamp["id"] = hashlib.sha256(
        json.dumps(stamp, sort_keys=True).encode()).hexdigest()[:12]
    return stamp


def run_child(driver, args, traced, bdir):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--scale", repr(args.scale)]
    if traced:
        spans = os.path.join(bdir, "out", "spans-%s-seed%d.json" %
                             (args.workload, args.seed))
        cmd += ["--trace", "--spans-out", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise SystemExit("perfbench: driver exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(driver, args, bdir, pattern, min_reps):
    """Runs children in `pattern` order (False = untraced, True = traced),
    cycling, at least `min_reps` times and until --seconds would be
    exceeded by one more cycle."""
    started = time.monotonic()
    children = []
    while True:
        cycle_start = time.monotonic()
        for traced in pattern:
            children.append(run_child(driver, args, traced, bdir))
        cycle = time.monotonic() - cycle_start
        elapsed = time.monotonic() - started
        reps = len(children) // len(pattern)
        if reps >= min_reps and elapsed + cycle > args.seconds:
            break
    return children


def quartiles(values):
    q = quantiles(values, n=4)
    return q[0], q[2]


def check_consistency(children, failures):
    """Every repetition of one seed must simulate the same thing."""
    first = children[0]
    for child in children[1:]:
        if child["event_digest"] != first["event_digest"]:
            failures.append("event digest differs between repetitions "
                            "(traced vs untraced or run to run): %s vs %s" %
                            (first["event_digest"], child["event_digest"]))
            return
        if child["sim"] != first["sim"] or \
                child["requests"] != first["requests"]:
            failures.append("simulated metrics differ between repetitions")
            return


def terminal(child):
    """Simulated requests that reached a terminal state in one run."""
    r = child["requests"]
    return r["attained"] + r["shed"] + r["timed_out"] + r["failed"]


def end_to_end(untraced, traced):
    """End-to-end metrics: timings are medians over the repetitions; the
    simulated ones are exact (identical in every repetition)."""
    sim = traced[0]["sim_exact"]
    req_per_s = [terminal(c) / c["run_s"] for c in untraced]
    return {
        "req_per_s": (median(req_per_s), req_per_s),
        "peak_rss_mib": (median([c["peak_rss_mib"] for c in untraced]),
                         [c["peak_rss_mib"] for c in untraced]),
        "setup_s": (median([c["setup_s"] for c in untraced]),
                    [c["setup_s"] for c in untraced]),
        "sim_ttft_p50_ms": (sim["ttft_p50_ms"], None),
        "sim_ttft_p99_ms": (sim["ttft_p99_ms"], None),
        "sim_tbt_p99_ms": (sim["tbt_p99_ms"], None),
        "sim_goodput_frac": (sim["goodput_frac"], None),
    }


def per_layer(untraced, traced, failures, workload):
    """Per-layer metrics: medians over the traced repetitions."""
    layers = {}
    for key in traced[0]["layers"]:
        values = [t["layers"][key] for t in traced]
        layers[key] = None if values[0] is None else median(values)
    layers["setup.estimator_s"] = median(
        [c["setup_estimator_s"] for c in untraced])
    layers["setup.trace_s"] = median([c["setup_trace_s"] for c in untraced])
    plain = median([c["run_s"] for c in untraced])
    layers["trace_overhead_pct"] = 100.0 * (
        median([t["run_s"] for t in traced]) / plain - 1.0)
    if workload in REPLAY_CHECKED:
        hit, replay = layers["kv.hit_ratio"], layers["kv.replay_hit_ratio"]
        if hit is None or replay is None or \
                abs(hit - replay) > REPLAY_HIT_TOLERANCE:
            failures.append("KV replay hit ratio %s is not within %.2f of "
                            "the engine's %s" % (replay, REPLAY_HIT_TOLERANCE,
                                                 hit))
    return layers


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float) and not value.is_integer():
        return "%.6g" % value
    return "%d" % value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the input (smoke test only)")
    args = parser.parse_args()
    if args.seed is None:
        args.seed = WORKLOADS[args.workload]["default_seed"]

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to "
            "perfbench/; run from a full checkout")
        return 2
    spec = load_spec()
    bdir = build_dir()
    driver = build(bdir)
    os.makedirs(os.path.join(bdir, "out"), exist_ok=True)

    if args.trace:
        children = repeat(driver, args, bdir, (False, True), 1)
    else:
        # One traced run first, outside the measured window: it gives the
        # exact simulated latency populations and must simulate exactly
        # what the timed runs do (same event digest).
        children = [run_child(driver, args, True, bdir)]
        children += repeat(driver, args, bdir, (False,), MIN_REPS)
    untraced = [c for c in children if not c["traced"]]
    traced = [c for c in children if c["traced"]]
    stamp = machine_stamp(children[0])

    failures = []
    failed = 0
    for child in children:
        bad = [name for name, check in child["checks"].items()
               if not check["ok"]]
        if bad:
            failed += child["requests"]["sent"]
            failures += ["%s: %s" % (name, child["checks"][name]["detail"])
                         for name in bad]
    check_consistency(children, failures)

    if args.trace:
        layers = per_layer(untraced, traced, failures, args.workload)
        wanted = spec["per_layer"]
    else:
        e2e = end_to_end(untraced, traced)
        wanted = spec["end_to_end"]
    attempted = sum(c["requests"]["sent"] for c in children)
    if failures and failed == 0:
        failed = attempted  # A cross-run check failed: no run counts.

    req = untraced[0]["requests"]
    print("perfbench %s seed=%d seconds=%g trace=%d scale=%g" %
          (args.workload, args.seed, args.seconds, args.trace, args.scale))
    print("machine: %s" % json.dumps(stamp, sort_keys=True))
    print("requests: sent %d, ok %d, failed %d over %d runs; each run "
          "simulates %d sent -> %d attained, %d shed, %d timed out, "
          "%d failed" % (attempted, attempted - failed, failed,
                         len(children), req["sent"], req["attained"],
                         req["shed"], req["timed_out"], req["failed"]))
    print("runs: %d untraced, %d traced; event digest %s, outcome digest %s "
          "(information only)" %
          (len(untraced), len(traced), untraced[0]["event_digest"],
           untraced[0].get("outcome_digest", "n/a")))
    for failure in failures:
        print("FAILED: %s" % failure)

    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if args.trace:
            value = layers.get(name)
            calls = None
            for prefix in CALL_COUNTED:
                if name.startswith(prefix + "_p"):
                    calls = layers.get(prefix + "_calls")
            note = "" if calls is None else " (%s calls)" % fmt(calls)
        else:
            value, samples = e2e[name]
            if samples is not None:
                q1, q3 = quartiles(samples)
                note = " (median of %d runs; quartiles %s .. %s)" % (
                    len(samples), fmt(q1), fmt(q3))
            elif name.startswith("sim_ttft"):
                note = " (n=%d attained of %d sent)" % (
                    traced[0]["sim_exact"]["ttft_count"], req["sent"])
            elif name.startswith("sim_tbt"):
                note = " (n=%d gaps)" % traced[0]["sim_exact"]["tbt_count"]
            else:
                note = ""
        print("  %-36s %14s %s%s" % (name, fmt(value),
                                     unit if value is not None else "", note))
        # The result line holds numbers only: a layer the workload does not
        # exercise prints n/a above and 0 here.
        metrics[name] = {"value": 0.0 if value is None else value,
                         "unit": unit}
    if args.trace:
        print("serve queue delay p99 per SLO class (collector sketch, "
              "information only): %s" % ", ".join(
                  "%s %s" % (cls, fmt(layers.get(
                      "serve.queue_delay_p99_ms." + cls)))
                  for cls in ("interactive", "standard", "batch")))

    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    saved = os.path.join(bdir, "out", "%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace,
        "" if args.scale == 1.0 else "-scale%g" % args.scale))
    with open(saved, "w") as f:
        json.dump({"stamp": stamp, "workload": args.workload,
                   "seed": args.seed, "trace": args.trace,
                   "scale": args.scale, "failures": failures,
                   "result": result, "runs": children}, f, indent=1)
    print("saved: %s" % os.path.relpath(saved, ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
