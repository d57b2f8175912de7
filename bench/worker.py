"""One workload run in a fresh process; started by bench/run.py.

    python3 bench/worker.py <workload> <seed> <mode> [seconds]

Modes:
  setup    set up only; report the set-up time and the reference-loop time
  measure  set up, run ops for `seconds`, check every output; report each
           op's latency with the reference-loop time measured just before it
  trace    set up and run one round of ops, alternately without and with the
           layer tracer, TRACE_PAIRS times each; report the faster of each

Prints one JSON object on stdout.  Set-up time counts from the start of this
script, so it covers importing qpsurf, generating the inputs and building the
start QPs.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import qpsurf.cli  # noqa: E402,F401
from qpsurf.potential import PotentialBuildWarning  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


TRACE_PAIRS = 2


def traced_region(name, seed, root, traced):
    """Set up and run one round inside a root span, with or without the tracer.

    The untraced and traced runs alternate in one process, so that a slow
    spell of the host does not land on one side of the overhead ratio only.
    """
    w = workloads.make(name, seed, root, traced=traced)
    held = {}

    def region():
        w.setup()
        held["results"] = workloads.run_ops(w)[0]

    tracer = Tracer()
    if traced:
        tracer.install()
    t0 = time.perf_counter()
    try:
        tracer.root(region)
    finally:
        tracer.uninstall()
    wall = time.perf_counter() - t0
    failures, final = workloads.gate(w, held["results"])
    return {"wall_s": wall, "failures": failures, "final": final, "ops": len(held["results"]),
            "trace": tracer.summary(), "children": getattr(w, "child_traces", []),
            "children_wait_s": getattr(w, "wait_s", 0.0)}


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    warnings.simplefilter("ignore", PotentialBuildWarning)
    root = os.getcwd()
    out = {"import_s": IMPORT_S}
    if mode in ("setup", "measure"):
        w = workloads.make(name, seed, root)
        w.setup()
        out["setup_s"] = time.perf_counter() - T_START
        out["reference_s"] = workloads.time_reference()
        if mode == "measure":
            results, rounds = workloads.run_ops(w, seconds=float(argv[3]))
            failures, final = workloads.gate(w, results)
            timings = [t for _, round_timings in rounds for t in round_timings]
            out.update(ops=[["/".join(map(str, key)), lat, ref] for (key, _, _), (lat, ref)
                            in zip(results, timings)],
                       failures=failures, final=final, inputs=w.inputs, rounds=len(rounds))
    else:
        runs = {False: [], True: []}
        for _ in range(TRACE_PAIRS):
            for traced in (False, True):
                runs[traced].append(traced_region(name, seed, root, traced))
        plain = min(runs[False], key=lambda r: r["wall_s"])
        out.update(min(runs[True], key=lambda r: r["wall_s"]), untraced_wall_s=plain["wall_s"])
        every = runs[False] + runs[True]
        out["attempted"] = sum(r["ops"] for r in every)
        out["failures"] = [f for r in every for f in r["failures"]]
        out["final"] = [f for r in every for f in r["final"]]
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
