"""Regenerate bench/golden.json from the code in ./src.

    PYTHONPATH=src:bench python3 bench/record.py

The file holds the reference outputs the benchmark gates on: digests of the
certify reports and of every CLI stage output, and node and edge counts of
every explore run.  Record it from a commit whose outputs are trusted; a
change that must keep outputs byte-identical is checked against it.
"""

import json
import os
import subprocess
import sys
import warnings

import gen
import qpsurf
import workloads
from qpsurf.potential import PotentialBuildWarning


def certify():
    w = workloads.Certify(0)
    w.setup()
    out = {}
    for label, call, order in w.round:
        report = getattr(qpsurf, w.CALLS[call])(w.qps[label], order)
        out["%s/%s/%d" % (label, call, order)] = workloads.digest(report.to_text())
    return out


def explore():
    w = workloads.Explore(0)
    w.setup()
    out = {}
    for label, pick, depth in w.round:
        report, graph = qpsurf.explore_mutation_class(w.qps[(label, pick)], depth,
                                                      workloads.ORDER)
        if not report.passed:
            sys.exit("explore %s/%d/%d did not pass" % (label, pick, depth))
        out["%s/%d/%d" % (label, pick, depth)] = [len(graph.nodes), len(graph.edges)]
    return out


def cli():
    env = dict(os.environ, PYTHONHASHSEED="0")
    order = str(workloads.ORDER)

    def run(argv, stdin=""):
        proc = subprocess.run([sys.executable, "-m", "qpsurf.cli"] + argv, input=stdin,
                              capture_output=True, text=True, env=env)
        return proc.returncode, proc.stdout

    out = {}
    for name in qpsurf.examples_data.CORPUS:
        _, text = run(["examples", name])
        out["%s/examples/-" % name] = workloads.digest(text)
        _, qp_text = run(["qp", "--order", order], text)
        out["%s/qp/-" % name] = workloads.digest(qp_text)
        out["%s/dim/-" % name] = workloads.digest(run(["dim", "--order", order], qp_text)[1])
        for v in qpsurf.QP.from_text(qp_text).quiver.vertices:
            code, mutated = run(["mutate", "-", v], qp_text)
            if code == 0:
                out["%s/mutate/%s" % (name, v)] = workloads.digest(mutated)
        tri = qpsurf.Triangulation.from_text(text)
        for arc in gen.flip_candidates(tri):
            code, flipped = run(["flip", "-", arc], text)
            if code != 0:
                continue
            out["%s/flip/%s" % (name, arc)] = workloads.digest(flipped)
            code, report = run(["check", "flip-compat", "-", arc, "--order", order], text)
            if code != 0:
                sys.exit("check flip-compat %s %s exited %d" % (name, arc, code))
            out["%s/check/%s" % (name, arc)] = workloads.digest(report)
    return out


if __name__ == "__main__":
    warnings.simplefilter("ignore", PotentialBuildWarning)
    golden = {"certify": certify(), "explore": explore(), "cli": cli()}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
