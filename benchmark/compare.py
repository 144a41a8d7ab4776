#!/usr/bin/env python3
"""Runs and judges the repository benchmark (benchmark/run.sh).

  compare.py check --workload W --trace T < vbt_bench-output
      Passes the vbt_bench output through and fails unless its last line is
      a correct result carrying every metric BENCHMARK.json declares for
      that trace mode, finite and in its declared unit.

  compare.py summarize [--passes 5] [--seed0 1] [--trace 0] [--out F.json]
      Runs every workload --passes times, one seed per pass, and prints
      each metric's median, quartiles and spread (IQR / median) beside its
      bound.

  compare.py ab --a SRC_A --b SRC_B [--pairs 10] [--seed0 1]
      A/B comparison of two source trees with this benchmark code:
      alternating pairs (the same seed on both sides of a pair), then per
      workload and end-to-end metric the median, quartiles, win fraction
      and one verdict: improved, no worse, regressed or unresolved.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def declared(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def parse_result(text):
    lines = [l for l in text.strip().splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def check_result(result, spec, trace):
    """Problems with one vbt_bench result; empty when it is acceptable."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is %r" % result["correct"])
    if result["failed"] != 0:
        problems.append("failed = %r" % result["failed"])
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted = %r" % result["attempted"])
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared(spec, trace)}
    for name in sorted(set(metrics) - set(want)):
        problems.append("undeclared metric %s" % name)
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            problems.append("missing metric %s" % name)
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append("%s is not a finite number: %r" % (name, m.get("value")))
        elif m.get("unit") != unit:
            problems.append("%s has unit %r, declared %r" % (name, m.get("unit"), unit))
    return problems


def run_once(workload, seed, trace, seconds, src=None, build=None):
    """One vbt_bench run through run.sh; returns the parsed result."""
    env = dict(os.environ)
    if src:
        env["VBT_BENCH_REPO"] = os.path.abspath(src)
    if build:
        env["VBT_BENCH_BUILD"] = os.path.abspath(build)
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    result = parse_result(out.stdout)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, out.returncode))
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def cmd_check(args):
    text = sys.stdin.read()
    sys.stdout.write(text)
    try:
        problems = check_result(parse_result(text), load_spec(), args.trace)
    except ValueError as e:
        problems = ["unparseable result: %s" % e]
    for p in problems:
        print("check %s trace=%d: %s" % (args.workload, args.trace, p), file=sys.stderr)
    return 1 if problems else 0


def cmd_summarize(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in declared(spec, args.trace)}
    summary = {}
    for w in workloads:
        runs = []
        for p in range(args.passes):
            seed = args.seed0 + p
            runs.append(run_once(w, seed, args.trace, args.seconds or spec["run_seconds"]))
            print("%s seed %d done" % (w, seed), file=sys.stderr)
        summary[w] = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            summary[w][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                "spread": spread(values), "bound": bounds[name]}
    print("%-14s %-36s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w, metrics in summary.items():
        for name, s in metrics.items():
            bound = s["bound"]
            flag = ""
            if bound is not None and name != "setup_s" and s["spread"] > bound / 3:
                flag = "  <- spread above bound/3"
            print("%-14s %-36s %12.5g %12.5g %12.5g %7.2f%% %6s%s" %
                  (w, name, s["q1"], s["median"], s["q3"], 100 * s["spread"],
                   "-" if bound is None else "%g" % bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"passes": args.passes, "seed0": args.seed0, "trace": args.trace,
                       "workloads": summary}, f, indent=1)
    return 0


def verdict(a, b, better, bound):
    """Guide-style verdict for one workload x metric over paired runs."""
    sign = 1 if better == "lower" else -1  # positive delta = B worse
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    win_frac = wins / len(a)
    delta = sign * (mb - ma) / ma if ma else 0.0
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "improved", win_frac, delta
    if ma and (qa3 - qa1) / ma > bound:
        return "unresolved", win_frac, delta
    if win_frac >= 0.9 and delta < 0 and abs(mb - ma) > (qa3 - qa1):
        return "improved", win_frac, delta
    if delta > bound:
        return "regressed", win_frac, delta
    return "no worse", win_frac, delta


def cmd_ab(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    sides = {"A": args.a, "B": args.b}
    builds = {k: os.path.join(HERE, "build", "ab-" + k) for k in sides}
    runs = {w: {"A": [], "B": []} for w in workloads}
    for i in range(args.pairs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        seed = args.seed0 + i
        for w in workloads:
            for side in order:
                r = run_once(w, seed, 0, seconds, sides[side], builds[side])
                runs[w][side].append(r["metrics"])
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]), file=sys.stderr)
    regressed = False
    print("%-14s %-22s %-29s %-29s %5s %8s  %s" %
          ("workload", "metric", "A q1/median/q3", "B q1/median/q3", "wins", "delta", "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            a = [r[m["name"]]["value"] for r in runs[w]["A"]]
            b = [r[m["name"]]["value"] for r in runs[w]["B"]]
            v, win_frac, delta = verdict(a, b, m["better"], m["bound"])
            regressed |= v == "regressed"
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-14s %-22s %-29s %-29s %5.2f %+7.1f%%  %s" %
                  (w, m["name"], fmt(quartiles(a)), fmt(quartiles(b)), win_frac,
                   100 * delta, v))
    return 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("check")
    c.add_argument("--workload", required=True)
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("summarize")
    s.add_argument("--passes", type=int, default=5)
    s.add_argument("--seed0", type=int, default=1)
    s.add_argument("--trace", type=int, default=0)
    s.add_argument("--seconds", type=int, default=0, help="0: BENCHMARK.json run_seconds")
    s.add_argument("--workloads", nargs="*")
    s.add_argument("--out")
    a = sub.add_parser("ab")
    a.add_argument("--a", required=True, help="source tree of the parent")
    a.add_argument("--b", required=True, help="source tree of the change")
    a.add_argument("--pairs", type=int, default=10)
    a.add_argument("--seed0", type=int, default=1)
    a.add_argument("--seconds", type=int, default=0, help="0: BENCHMARK.json run_seconds")
    a.add_argument("--workloads", nargs="*")
    args = p.parse_args()
    return {"check": cmd_check, "summarize": cmd_summarize, "ab": cmd_ab}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
