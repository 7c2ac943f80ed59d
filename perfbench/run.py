#!/usr/bin/env python3
"""Runs one workload of the Bayonet benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the harness from
source (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build
when that is unset. The run writes the workload's queries from the seed,
runs the harness once, checks every answer against perfbench/reference.py
and prints, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The traced run also
writes a Chrome/Perfetto trace beside the build. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAMS = "examples/programs"

# A run must end within 180 s, build check included.
HARNESS_TIMEOUT_S = 170

# Load-balancing observation sequences the traced exact_paper run's lane
# sweep picks from by seed (S0, S1, H1 as 0, 1, H). Seeds that are
# multiples of the list's length get the paper's S1,S0,S0,S1,H1 (265,004
# configs); the other two expand 263,404 and 262,340.
LOADBALANCING_OBS = [ref.LOADBALANCING_PAPER_OBS, "1010H", "1011H"]


def query(qid, engine, source, particles=0, seed=0):
    return (qid, engine, particles, seed, source)


def exact_paper(seed):
    """Many small exact queries: the paper's Fig. 2, Fig. 3, gossip K=4,
    reliability at 30 nodes and the three Section 5.5 posteriors, plus a
    reliability chain and a ring whose size and failure probability the
    seed draws. The traced run also times the one large exact query,
    Section 5.5 load balancing, at 1, 2 and 4 lanes."""
    rng = random.Random(seed)
    diamonds = rng.randint(3, 5)
    p_fail = Fraction(rng.randint(1, 99), 1000)
    ring_nodes = rng.randint(8, 12)
    p_hop = Fraction(rng.randint(1, 20), 100)
    queries = [
        query("figure2", "exact", ("file", PROGRAMS + "/figure2.bay")),
        query("figure3", "exact", ("file", PROGRAMS + "/figure2_symbolic.bay")),
        query("gossip4", "exact", ("file", PROGRAMS + "/gossip4.bay")),
        query("reliability30", "exact",
              ("file", PROGRAMS + "/reliability30.bay")),
        query("bayes123.rand", "exact", ("bayes", "123", "rand")),
        query("bayes123.detS1", "exact", ("bayes", "123", "detS1")),
        query("bayes123.detS2", "exact", ("bayes", "123", "detS2")),
        query("chain", "exact", ("chain", diamonds, p_fail)),
        query("ring", "exact", ("ring", ring_nodes, p_hop)),
    ]
    checks = [
        ("rational", ["figure2"], ref.FIGURE2),
        ("regions", ["figure3"], ref.FIGURE3),
        ("rational", ["gossip4"], ref.gossip_expected_infected(4, exact=True)),
        ("rational", ["reliability30"],
         ref.chain_reliability(7, Fraction(1, 1000))),
        ("rational", ["bayes123.rand"], ref.BAYES123_RAND),
        ("sum_to_one", ["bayes123.rand", "bayes123.detS1", "bayes123.detS2"],
         None),
        ("rational", ["chain"], ref.chain_reliability(diamonds, p_fail)),
        ("rational", ["ring"], ref.ring_reliability(ring_nodes, p_hop)),
    ]
    return {"lanes": 1, "queries": queries, "checks": checks,
            "traced": loadbalancing_sweep(seed)}


def loadbalancing_sweep(seed):
    """The lane sweep of a traced run, with the two fixed-prior runs for the
    Bayes-rule check answered after it."""
    obs = LOADBALANCING_OBS[seed % len(LOADBALANCING_OBS)]
    checks = [("bayes", ["loadbalancing", "lb.bad", "lb.good"],
               ref.LOADBALANCING_PRIOR_BAD)]
    if obs == ref.LOADBALANCING_PAPER_OBS:
        checks.append(("three_digits", ["loadbalancing"],
                       ref.LOADBALANCING_PAPER))
    return {
        "sweep": [1, 2, 4],
        "sweep_query": query("loadbalancing", "exact", ("lb", obs, "paper")),
        "after": [query("lb.bad", "exact", ("lb", obs, "bad")),
                  query("lb.good", "exact", ("lb", obs, "good"))],
        "checks": checks,
    }


def translated_figure2(seed):
    """Fig. 2 and Fig. 3 through Translator -> PsiExact, the paper's own
    pipeline. Nothing here depends on the seed."""
    del seed
    return {
        "lanes": 1,
        "queries": [
            query("figure2", "translated", ("file", PROGRAMS + "/figure2.bay")),
            query("figure3", "translated",
                  ("file", PROGRAMS + "/figure2_symbolic.bay")),
        ],
        "checks": [("rational", ["figure2"], ref.FIGURE2),
                   ("regions", ["figure3"], ref.FIGURE3)],
    }


def smc_gossip(seed):
    """SMC with the paper's 1000 particles on gossip K=20 and K=30; the
    seed is the SMC seed."""
    return {
        "lanes": 1,
        "queries": [query("gossip%d" % k, "smc", ("gossip", k), 1000, seed)
                    for k in (20, 30)],
        "checks": [("smc", ["gossip%d" % k], ref.gossip_expected_infected(k))
                   for k in (20, 30)],
    }


WORKLOADS = {
    "exact_paper": exact_paper,
    "translated_figure2": translated_figure2,
    "smc_gossip": smc_gossip,
}


def workload_text(w, seconds, trace, trace_out):
    lines = ["lanes %d" % w["lanes"], "seconds %s" % seconds,
             "trace %d" % trace]
    queries = [("query", q) for q in w["queries"]]
    queries += [("check", q) for q in w.get("after", [])]
    if trace:
        lines.append("trace_out %s" % trace_out)
        if w.get("sweep"):
            lines.append("sweep " + " ".join(map(str, w["sweep"])))
            queries.append(("sweep_query", w["sweep_query"]))
    for kind, (qid, engine, particles, seed, source) in queries:
        lines.append(" ".join(str(x) for x in
                              (kind, qid, engine, particles, seed) + source))
    return "\n".join(lines) + "\n"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures once, then brings both harness binaries up to date.
    Build output goes to stderr: stdout carries only the result."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_harness", "perfbench_traced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    build(out)
    w = WORKLOADS[args.workload](args.seed)
    traced = w.pop("traced", {})
    if args.trace:
        w.update({k: v for k, v in traced.items() if k != "checks"})
        w["checks"] = w["checks"] + traced.get("checks", [])
    os.makedirs(os.path.join(out, "runs"), exist_ok=True)
    stem = os.path.join(out, "runs", "%s-seed%d" % (args.workload, args.seed))
    trace_out = stem + "-trace.json"
    with open(stem + ".workload", "w") as f:
        f.write(workload_text(w, args.seconds, args.trace, trace_out))

    # The harness reads no BAYONET_* setting: checkpoints, exporters and
    # thread overrides from the environment would change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("BAYONET_")}
    binary = "perfbench_traced" if args.trace else "perfbench_harness"
    proc = subprocess.run([os.path.join(out, binary), stem + ".workload"],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=HARNESS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: harness exited with %d" % proc.returncode)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    answers = {r["id"]: r for r in records if r["kind"] == "answer"}
    result = [r for r in records if r["kind"] == "result"]
    if len(result) != 1:
        sys.exit("perfbench: harness printed no result")
    result = result[0]

    errors = ref.check_answers(w["checks"], answers)
    if not result["consistent"]:
        errors.append("answers changed between passes or lane counts")
    for e in errors:
        print("perfbench: wrong answer: " + e, file=sys.stderr)
    if args.trace:
        print("perfbench: trace written to " + os.path.relpath(trace_out, ROOT),
              file=sys.stderr)

    metrics = {}
    for m in declared:
        value = result["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                sys.exit("perfbench: harness did not report " + m["name"])
            value = 0  # A layer this workload does not exercise.
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": not errors,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
