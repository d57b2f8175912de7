"""The qpsurf benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from ./src.  Each
run starts fresh child processes (bench/worker.py), one at a time, and reads
one JSON object from each.

--trace 0 measures the end-to-end metrics.  One child sets up and then runs
whole rounds of the workload's ops for at most the given seconds (at least
one round), and checks every output.  Every round runs the same ops, so each
op has one latency per round.

The host this was built on runs the same code up to 1.7x slower for spells
of ten seconds to several minutes.  So a fixed pure-Python reference loop
(workloads.reference_loop) is timed just before every op and right after
every set-up, and each time is scaled by REFERENCE_S over that reference
time: an op's time relative to the loop stayed within 3 % while its raw time
moved 30 %.  An op's sample is its best scaled latency over the rounds.  Every
time below is in seconds of a host on which the reference loop takes 10 ms;
the unscaled p50 and set-up time are on a reader line.
  throughput_ops_s  ops of one round divided by the sum of their samples
  latency_p50_ms    median of the samples
  latency_tail_ms   highest percentile of the samples with 10 samples above
                    it (the 11th largest sample)
  setup_s           median set-up time of five children: two that only set
                    up before the measuring one, the measuring one, and two
                    after it
  peak_rss_mb       largest resident set of the measuring child or of any
                    process it started

--trace 1 runs one round of the workload in a fresh child, alternately
without and with the layer tracer, twice each.  The faster traced round gives
the per-layer metrics, in unscaled seconds; the tracing overhead is the
faster traced wall time over the faster untraced one.  --seconds does not
apply to it.

The last line of stdout is the JSON result; the lines before it show the same
metrics for a reader, with the tail percentile, the sample and round counts,
the failed ratio and the sizes of the inputs.  The exit code is 0 when a
result was printed, and 2 when the run could not be made.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify", "explore", "cli")
BUDGET_S = 170
# Times are scaled to a host on which workloads.reference_loop takes this long.
REFERENCE_S = 0.010
MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

SELF_TIMED = [
    "cli.import", "cli.main", "surface.from_text", "surface.analysis", "surface.flip",
    "potential.assembly", "potential.qp_of_triangulation", "qp.premutate", "qp.split",
    "qp.from_text", "quiver.premutate", "algebra.mul", "algebra.cyclic_normal_form",
    "algebra.apply_substitution", "algebra.cyclic_derivative", "jacobian.dim",
    "jacobian.rigid", "jacobian.stabilize", "linalg.add_row", "linalg.contains",
    "linalg.dense", "verify.canonical_form", "verify.check", "verify.explore",
]
CALL_COUNTED = [
    "surface.flip", "qp.premutate", "qp.split", "algebra.mul", "algebra.apply_substitution",
    "jacobian.dim", "linalg.add_row", "linalg.contains", "verify.canonical_form",
]
COUNTED = ["jacobian.path_columns", "jacobian.ideal_rank", "verify.explore.nodes",
           "verify.explore.edges"]

PER_LAYER = dict(
    [("cli.import_ms", "ms"), ("cli.process_overhead_s", "s")]
    + [(layer + ".self_s", "s") for layer in SELF_TIMED]
    + [(layer + ".calls", "count") for layer in CALL_COUNTED]
    + [(name, "count") for name in COUNTED]
    + [("linalg.add_row.useful_ratio", "ratio"), ("bench.self_s", "s"),
       ("bench.traced_wall_s", "s"), ("bench.untraced_wall_s", "s"),
       ("bench.trace_overhead_ratio", "ratio")])


class RunError(Exception):
    pass


def child(root, deadline, *args):
    """Run bench/worker.py with the given arguments; returns its JSON object."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), HERE]),
               PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + [str(a) for a in args]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("out of time before %s" % " ".join(cmd[2:]))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError("worker %s timed out" % " ".join(cmd[2:])) from None
    if proc.returncode != 0:
        raise RunError("worker %s failed (exit %d):\n%s"
                       % (" ".join(cmd[2:]), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies):
    """(percentile, value): the highest percentile with MIN_BEYOND samples above
    it, which by the nearest-rank rule is the (MIN_BEYOND + 1)-th largest."""
    xs = sorted(latencies)
    if len(xs) <= MIN_BEYOND:
        return 100.0, xs[-1]
    rank = len(xs) - MIN_BEYOND
    return 100.0 * rank / len(xs), xs[rank - 1]


def measure(root, workload, seed, seconds, deadline):
    def setup_run():
        return child(root, deadline, workload, seed, "setup")

    setups = [setup_run(), setup_run()]
    main = child(root, deadline, workload, seed, "measure", seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups += [main, setup_run(), setup_run()]
    lat = [x for _, x, _ in main["ops"]]
    if not lat:
        raise RunError("no op completed")
    by_slot = {}
    for key, x, ref in main["ops"]:
        by_slot.setdefault(key, []).append((x, ref))
    best = [min(x / ref for x, ref in xs) * REFERENCE_S for xs in by_slot.values()]
    raw = [min(x for x, _ in xs) for xs in by_slot.values()]
    pct, tail_s = tail(best)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["reference_s"]
                                     for r in setups),
        "throughput_ops_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1000,
        "latency_tail_ms": tail_s * 1000,
        "peak_rss_mb": peak_kb / 1024,
    }
    info = ["latency_tail_ms is p%.2f of %d samples (%d beyond); %d rounds, %d op latencies"
            % (pct, len(best), min(MIN_BEYOND, len(best) - 1), main["rounds"], len(lat)),
            "failed_ratio %.6f ratio" % (len(main["failures"]) / len(lat)),
            "unscaled: latency_p50_ms %.4f, setup_s %.4f"
            % (statistics.median(raw) * 1000, statistics.median(r["setup_s"] for r in setups))]
    return metrics, END_TO_END, len(lat), main["failures"], main["final"], main["inputs"], info


def per_layer(root, workload, seed, deadline):
    traced = child(root, deadline, workload, seed, "trace")
    summary = traced["trace"]
    layers = {name: list(v) for name, v in summary["layers"].items()}
    counters = dict(summary["counters"])
    imports = [traced["import_s"]]
    overhead = 0.0
    accounted = 0.0
    for sub in traced["children"]:
        for name, (calls, self_s) in sub["layers"].items():
            row = layers.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        for name, value in sub["counters"].items():
            counters[name] = counters.get(name, 0) + value
        layers.setdefault("cli.import", [0, 0.0])[1] += sub["import_s"]
        accounted += sub["import_s"] + sub["wall_s"]
    if traced["children"]:
        imports = [sub["import_s"] for sub in traced["children"]]
    # The worker spent the children's wall time waiting on them; the part not
    # covered by their import and main is process start-up and teardown.
    bench_self = layers["bench"][1]
    if traced["children"]:
        waited = traced["children_wait_s"]
        overhead = waited - accounted
        bench_self -= waited

    def get(layer, i):
        return layers.get(layer, [0, 0.0])[i]

    m = {"cli.import_ms": statistics.median(imports) * 1000, "cli.process_overhead_s": overhead}
    for layer in SELF_TIMED:
        m[layer + ".self_s"] = get(layer, 1)
    for layer in CALL_COUNTED:
        m[layer + ".calls"] = get(layer, 0)
    for name in COUNTED:
        m[name] = counters.get(name, 0)
    calls = get("linalg.add_row", 0)
    m["linalg.add_row.useful_ratio"] = counters.get("linalg.add_row.useful", 0) / calls if calls else 0.0
    m["bench.self_s"] = bench_self
    m["bench.traced_wall_s"] = summary["wall_s"]
    m["bench.untraced_wall_s"] = traced["untraced_wall_s"]
    m["bench.trace_overhead_ratio"] = summary["wall_s"] / traced["untraced_wall_s"]
    total = sum(v for k, v in m.items() if k.endswith(".self_s")) + overhead
    info = ["self times plus bench.self_s and cli.process_overhead_s: %.6f s of %.6f s traced"
            % (total, summary["wall_s"])]
    consistent = abs(total - summary["wall_s"]) <= 1e-6 * max(1.0, summary["wall_s"])
    final = traced["final"] + ([] if consistent else ["self times do not add up"])
    return (m, PER_LAYER, traced["attempted"], traced["failures"], final, [], info)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = os.getcwd()
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(root, "src", "qpsurf", "__init__.py")):
        sys.stderr.write("error: src/qpsurf not found under %s; run from a qpsurf checkout\n" % root)
        return 2
    try:
        if args.trace:
            result = per_layer(root, args.workload, args.seed, deadline)
        else:
            result = measure(root, args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    metrics, units, attempted, failures, final, inputs, info = result
    for reason in failures + final:
        sys.stderr.write("FAIL %s\n" % reason)
    head = "%s seed=%d trace=%d" % (args.workload, args.seed, args.trace)
    for name, value in metrics.items():
        print("%s %s %r %s" % (head, name, value, units[name]))
    for line in info:
        print("%s %s" % (head, line))
    for size in inputs:
        print("%s input %s" % (head, json.dumps(size, sort_keys=True)))
    print(json.dumps({
        "correct": not failures and not final,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
