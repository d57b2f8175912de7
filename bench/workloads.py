"""The benchmark's workloads: seeded inputs, the operations timed, and their gates.

A workload object is built from a seed.  `setup()` makes every input and
builds the start QPs; `ops()` then yields an endless, deterministic stream of
(key, thunk) pairs, and one call of a thunk is one timed operation.  The
stream is cut into rounds by a None after the last op of each round.  Every
round runs the same ops in a new order, and a run measures whole rounds
only.  `verify(key, output)` returns None for a correct output and a reason
otherwise; `final_checks(results)` adds checks that need several outputs.

The inputs of certify and explore come from fixed generator seeds,
and the run's seed orders the ops of each round; cli's seed also picks the
vertex each file is mutated at and the arc it is flipped at.  The cost of an
op varies several-fold between generated surfaces of one shape, so inputs
drawn afresh for each seed made the spread between runs 20-40 % where fixed
inputs give 2-8 %.  Fixed inputs also let every output be compared with a
digest recorded from a trusted commit (bench/golden.json).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import gen
import oracle
import qpsurf

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
ORDER = 6


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def qp_sizes(qp):
    return {"arrows": len(qp.quiver.arrows), "potential_terms": len(qp.potential.terms)}


# -- certify ------------------------------------------------------------------


class Certify:
    """Few, large Jacobian calls on cycle-rich QPs at orders 6 to 8."""

    # (label, kind, size, punctures, generator seed, orders).  The disc seeds
    # give QPs whose largest puncture valence is 4.
    SHAPES = [
        ("torus1", "torus", 0, 0, 0, (6, 7)),
        ("torus2", "torus", 0, 1, 0, (6,)),
        ("disc5p2", "polygon", 5, 2, 2, (6, 7, 8)),
        ("disc6p2", "polygon", 6, 2, 1, (6, 7, 8)),
    ]
    CALLS = {"dim": "truncated_quotient_dim", "rigid": "is_rigid_up_to",
             "stabilize": "finite_dim_evidence"}
    # Besides every call at the shape's orders, one large call per round.
    EXTRA = [("torus1", "dim", 8)]
    TRUNCATION = 8
    ORACLE_ORDER = 5

    def __init__(self, seed):
        self.rng = random.Random("certify:%d" % seed)
        self.golden = load_golden()["certify"]

    def setup(self):
        self.qps = {}
        self.inputs = []
        self.round = []
        for label, kind, size, punct, gen_seed, orders in self.SHAPES:
            tri = gen.surface(kind, size, punct, gen_seed, ORDER)
            qp = qpsurf.qp_of_triangulation(tri, self.TRUNCATION)
            self.qps[label] = qp
            self.inputs.append(dict(gen.describe(tri, self.TRUNCATION), label=label,
                                    **qp_sizes(qp)))
            self.round += [(label, call, order) for call in self.CALLS for order in orders]
        self.round += self.EXTRA

    def ops(self):
        while True:
            self.rng.shuffle(self.round)
            for label, call, order in self.round:
                fn = getattr(qpsurf, self.CALLS[call])
                yield (label, call, order), (lambda fn=fn, qp=self.qps[label], order=order:
                                             fn(qp, order))
            yield None

    def verify(self, key, report):
        want = self.golden.get("/".join(map(str, key)))
        got = digest(report.to_text())
        return None if got == want else "digest %s, recorded %s" % (got, want)

    def final_checks(self, results):
        """Dense-rank oracle on the first dim output of two shapes."""
        problems = []
        for label in ("torus1", "disc5p2"):
            for key, report, err in results:
                if err is None and key[0] == label and key[1] == "dim":
                    want = oracle.oracle_dims(self.qps[label], self.ORACLE_ORDER)
                    if report.dims[:self.ORACLE_ORDER + 1] != want:
                        problems.append("%r dims %r, oracle %r" % (key, report.dims, want))
                    break
        return problems


# -- explore ------------------------------------------------------------------


class Explore:
    """Mutation-class exploration from type-A and punctured polygons of rank <= 7."""

    FULL = 99  # deep enough that every class explored here is exhausted
    # (label, kind, size, punctures, {depth: starts per round}, generator
    # seeds of the starts); full classes of A4, A5 and A6 have 6, 19 and 49
    # quivers (Torkildsen 2008).  The starts of one shape give the same node
    # and edge counts at every depth explored here; cheap depths run from
    # several starts to give the round more ops.
    SHAPES = [
        ("A4", "polygon", 7, 0, {FULL: 4}, (0, 1, 2, 3)),
        ("A5", "polygon", 8, 0, {1: 4, 2: 4, 3: 1, FULL: 1}, (0, 1, 2, 5)),
        ("A6", "polygon", 9, 0, {1: 3, 2: 1, FULL: 1}, (0, 4, 5)),
        ("A7", "polygon", 10, 0, {1: 1}, (0,)),
        ("D5", "polygon", 5, 1, {1: 3, 2: 3, 3: 1}, (0, 1, 10)),
        ("D6", "polygon", 6, 1, {1: 3, 2: 1}, (0, 5, 7)),
        ("D7", "polygon", 7, 1, {1: 1}, (0,)),
    ]
    CLASS_SIZES = {"A4": 6, "A5": 19, "A6": 49}

    def __init__(self, seed):
        self.rng = random.Random("explore:%d" % seed)
        self.golden = load_golden()["explore"]

    def setup(self):
        self.qps = {}
        self.inputs = []
        self.round = []
        for label, kind, size, punct, depths, picks in self.SHAPES:
            for pick in picks:
                tri = gen.surface(kind, size, punct, pick, ORDER)
                qp = qpsurf.qp_of_triangulation(tri, ORDER)
                self.qps[(label, pick)] = qp
                self.inputs.append(dict(gen.describe(tri, ORDER), label=label, seed=pick,
                                        **qp_sizes(qp)))
            self.round += [(label, pick, depth) for depth, n in depths.items()
                           for pick in picks[:n]]

    def ops(self):
        while True:
            self.rng.shuffle(self.round)
            for label, pick, depth in self.round:
                yield (label, pick, depth), (lambda qp=self.qps[(label, pick)], depth=depth:
                                             qpsurf.explore_mutation_class(qp, depth, ORDER))
            yield None

    def verify(self, key, result):
        report, graph = result
        counts = [len(graph.nodes), len(graph.edges)]
        want = self.golden.get("/".join(map(str, key)))
        if not report.passed:
            return report.first_failure
        if key[2] == self.FULL and counts[0] != self.CLASS_SIZES.get(key[0], counts[0]):
            return "%s class has %d quivers, expected %d" % (key[0], counts[0],
                                                            self.CLASS_SIZES[key[0]])
        return None if counts == want else "counts %r, recorded %r" % (counts, want)

    def final_checks(self, results):
        return []


# -- cli ----------------------------------------------------------------------


class Cli:
    """The built-in corpus piped stage by stage through `python3 -m qpsurf.cli`."""

    def __init__(self, seed, root, traced=False):
        self.rng = random.Random("cli:%d" % seed)
        self.golden = load_golden()["cli"]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(root, "src"), HERE]), PYTHONHASHSEED="0")
        self.traced = traced
        if traced:
            self.prefix = [sys.executable, os.path.join(HERE, "cli_traced.py")]
        else:
            self.prefix = [sys.executable, "-m", "qpsurf.cli"]
        self.child_traces = []
        self.wait_s = 0.0

    def setup(self):
        self.names = list(qpsurf.examples_data.CORPUS)
        self.choices = {}
        for key in self.golden:
            name, stage, arg = key.split("/")
            if stage in ("mutate", "flip"):
                self.choices.setdefault((name, stage), []).append(arg)
        self.inputs = []
        self.picks = {}
        for name in self.names:
            tri = qpsurf.Triangulation.from_text(qpsurf.examples_data.example_text(name))
            self.picks[name] = (self.rng.choice(self.choices[(name, "mutate")]),
                                self.rng.choice(self.choices[(name, "flip")]))
            self.inputs.append(dict(gen.describe(tri, ORDER), label=name, mutate=self.picks[name][0],
                                    flip=self.picks[name][1]))

    def _run(self, argv, stdin):
        t0 = time.perf_counter()
        proc = subprocess.run(self.prefix + argv, input=stdin, capture_output=True,
                              text=True, env=self.env, timeout=120)
        self.wait_s += time.perf_counter() - t0
        if self.traced:
            head, _, line = proc.stderr.rpartition("BENCH-TRACE ")
            if line:
                self.child_traces.append(json.loads(line))
            proc = subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout, head)
        return proc

    def ops(self):
        rng = self.rng
        order = str(ORDER)
        while True:
            names = list(self.names)
            rng.shuffle(names)
            for name in names:
                out = {}
                vertex, arc = self.picks[name]

                def stage(key, argv, stdin_key):
                    def call():
                        stdin = out[stdin_key].stdout if stdin_key else ""
                        out[key[1]] = self._run(argv, stdin)
                        return out[key[1]]
                    return key, call

                yield stage((name, "examples", "-"), ["examples", name], None)
                yield stage((name, "qp", "-"), ["qp", "--order", order], "examples")
                yield stage((name, "dim", "-"), ["dim", "--order", order], "qp")
                yield stage((name, "mutate", vertex), ["mutate", "-", vertex], "qp")
                yield stage((name, "flip", arc), ["flip", "-", arc], "examples")
                yield stage((name, "check", arc),
                            ["check", "flip-compat", "-", arc, "--order", order], "examples")
            yield None

    def verify(self, key, proc):
        if proc.returncode != 0:
            return "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-200:])
        want = self.golden.get("/".join(key))
        got = digest(proc.stdout)
        if key[1] == "check" and ": pass" not in proc.stdout.splitlines()[0]:
            return "check failed"
        return None if got == want else "digest %s, recorded %s" % (got, want)

    def final_checks(self, results):
        return []


WORKLOADS = {"certify": Certify, "explore": Explore, "cli": Cli}


def make(name, seed, root, traced=False):
    if name == "cli":
        return Cli(seed, root, traced)
    return WORKLOADS[name](seed)


def reference_loop():
    """A fixed pure-Python computation, timed next to the ops.

    It does what qpsurf's hot loops do (tuple keys in dicts, Fraction
    arithmetic, sorting), so its time follows the speed the host gives this
    process at the moment.
    """
    counts = {}
    acc = Fraction(0)
    for i in range(3000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    return acc, sorted(counts.items())


def time_reference(repeats=3):
    """Best wall time of `repeats` calls of reference_loop."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def run_ops(workload, seconds=None):
    """Run whole rounds of ops; with `seconds`, as many as fit, else one.

    A next round starts only if, at the pace of the slowest round so far, it
    would end within `seconds`; the first round always runs.  Each op is
    preceded by one timed reference_loop call.  Returns (results, rounds):
    results holds (key, output, error) per op, where error is the repr of an
    exception the op raised; rounds holds (wall time, [(op latency, reference
    time)]) per round.
    """
    clock = time.perf_counter
    results = []
    rounds = []
    timings = []
    start = round_start = clock()
    for item in workload.ops():
        if item is None:
            rounds.append((clock() - round_start, timings))
            slowest = max(r[0] for r in rounds)
            if seconds is None or clock() - start + slowest > seconds:
                break
            round_start = clock()
            timings = []
            continue
        key, thunk = item
        reference = time_reference(1)
        t0 = clock()
        try:
            out, err = thunk(), None
        except Exception as exc:  # an op that raises counts as failed, the run goes on
            out, err = None, repr(exc)
        timings.append((clock() - t0, reference))
        results.append((key, out, err))
    return results, rounds


def gate(workload, results):
    """Failure reasons by op index, plus those of the workload's final checks."""
    failures = []
    for n, (key, out, err) in enumerate(results):
        reason = err if err is not None else workload.verify(key, out)
        if reason is not None:
            failures.append("op %d %r: %s" % (n, key, reason))
    return failures, workload.final_checks(results)
