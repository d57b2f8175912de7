"""Measure every workload on several seeds and write bench/baseline.json.

    python3 bench/baseline.py [--seeds 1,2,...,10] [--out bench/baseline.json]

Runs bench/run.py once per workload and seed untraced, and once per workload
traced, from the current directory (a checkout root).  For each end-to-end
metric the file keeps every value, the median and the quartile spread as a
share of the median (statistics.quantiles, n=4); for the traced run it keeps
every per-layer metric.  It also keeps the input sizes each workload reported,
the layer predictions below, the Python version and the processor count.
Later changes compare their own runs of the same command with these numbers.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("certify", "explore", "cli")

# Which end-to-end metric each layer metric should move, on which workload,
# written down before any optimisation.
PREDICTIONS = {
    "cli.import_ms, cli.main.self_s, cli.process_overhead_s":
        "cli latency_p50_ms only",
    "surface.*, potential.*":
        "cli latency_p50_ms and set-up time of every workload",
    "qp.*, quiver.premutate.self_s":
        "explore throughput_ops_s and cli; certify unchanged",
    "algebra.mul.*":
        "certify throughput_ops_s (most), explore and cli",
    "algebra.apply_substitution.*":
        "explore throughput_ops_s and cli; certify unchanged",
    "jacobian.*":
        "certify throughput_ops_s (most) and cli; explore unchanged",
    "linalg.*":
        "certify throughput_ops_s (most) and cli; linalg.add_row.calls is exact and "
        "falls about (order + 1)x on certify when the elimination is done in one pass",
    "verify.canonical_form.*, verify.explore.*":
        "explore throughput_ops_s only",
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    inputs = [json.loads(line.split(" input ", 1)[1]) for line in lines if " input " in line]
    notes = [line.split(" ", 3)[3] for line in lines[:-1]
             if " is p" in line or "failed_ratio" in line or "self times" in line]
    return json.loads(lines[-1]), inputs, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "run_seconds": seconds, "seeds": seeds, "predictions": PREDICTIONS, "workloads": {}}
    for workload in WORKLOADS:
        values = {}
        entry = {"runs": []}
        for seed in seeds:
            result, inputs, notes = run(workload, seed, seconds, 0)
            entry["runs"].append({"seed": seed, "correct": result["correct"],
                                  "attempted": result["attempted"], "failed": result["failed"],
                                  "notes": notes})
            if seed == seeds[0]:
                entry["inputs_seed_%d" % seed] = inputs
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, result["correct"], {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        entry["end_to_end"] = {}
        for name, vals in values.items():
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            entry["end_to_end"][name] = {"median": med, "spread": (q[2] - q[0]) / med,
                                         "values": vals}
        traced, _, notes = run(workload, seeds[0], seconds, 1)
        entry["per_layer_seed_%d" % seeds[0]] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_notes"] = notes
        out["workloads"][workload] = entry
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
