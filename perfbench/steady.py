#!/usr/bin/env python3
"""Steadiness check: run one workload N times and compare runs against the
bounds in BENCHMARK.json.

    python3 perfbench/steady.py --workload evict_serial --runs 10 --sets 2
    python3 perfbench/steady.py --workload hot_serial --runs 10 --other ../parent

For each metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next to
the metric's bound. A spread within a third of the bound reads "ok", within
the bound "near", beyond it "WIDE" (setup_s is reported, not gated). With
--sets 2 the second set uses fresh seeds and its median must not be worse
than the first set's by more than the bound; the share of failed operations
must be identical. With --other, each seed runs on both checkouts, the order
alternating from pair to pair, and the medians of the two builds are
compared the same way. Exit status 0 when every gate holds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s seed %d in %s"
                         % (proc.returncode, workload, seed, root))
    result = json.loads(lines[-1])
    print("  seed %-4d %s" % (seed, "  ".join(
        "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    return result


def summarize(label, results, metrics):
    """Print one table; returns {name: (median, spread)}."""
    print("\n%s: %d runs" % (label, len(results)))
    print("  %-34s %14s %14s %14s %8s %7s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    out = {}
    ok = True
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = m.get("bound")
        status = ""
        if bound is not None:
            if spread <= bound / 3:
                status = "ok"
            elif spread <= bound:
                status = "near"
            else:
                status = "WIDE"
            if m["name"] == "setup_s":
                status += " (not gated)"
            elif status == "WIDE":
                ok = False
        print("  %-34s %14.6g %14.6g %14.6g %7.1f%% %7s %s" %
              (m["name"], med, q1, q3, 100 * spread,
               "" if bound is None else "%.0f%%" % (100 * bound), status))
        out[m["name"]] = (med, spread)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("  failed %d of %d attempted; per-run failed shares %s"
          % (failed, attempted, shares))
    return out, ok, shares


def compare(label, a, b, metrics):
    """Median of b against a, gated by each metric's bound."""
    print("\n%s" % label)
    ok = True
    for m in metrics:
        if m.get("bound") is None:
            continue
        ma, mb = a[m["name"]][0], b[m["name"]][0]
        worse = (mb - ma) / abs(ma) if m["better"] == "lower" else (ma - mb) / abs(ma)
        status = "ok" if worse <= m["bound"] else "WORSE"
        ok = ok and status == "ok"
        print("  %-34s %14.6g -> %14.6g  worse by %+6.1f%% (bound %.0f%%) %s"
              % (m["name"], ma, mb, 100 * worse, 100 * m["bound"], status))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--other", help="root of a second checkout to compare against")
    args = ap.parse_args()

    bench = load_bench(ROOT)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    ok = True

    if args.other:
        other = os.path.abspath(args.other)
        a, b = [], []
        for i in range(args.runs):
            seed = args.seed_base + i
            order = [(ROOT, a), (other, b)] if i % 2 == 0 else [(other, b), (ROOT, a)]
            for root, sink in order:
                sink.append(run_once(root, bench, args.workload, seed, seconds, args.trace))
        sa, ok_a, shares_a = summarize("this checkout", a, metrics)
        sb, ok_b, shares_b = summarize("other checkout (%s)" % other, b, metrics)
        ok = ok_a and ok_b and compare("other -> this checkout", sb, sa, metrics)
        ok = ok and shares_a == shares_b
    else:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                results.append(run_once(ROOT, bench, args.workload, seed, seconds, args.trace))
            summary, set_ok, shares = summarize(
                "%s, set %d (seeds %d..%d)" % (args.workload, s + 1,
                                               args.seed_base + s * args.runs,
                                               args.seed_base + (s + 1) * args.runs - 1),
                results, metrics)
            sets.append((summary, shares))
            ok = ok and set_ok
        if len(sets) == 2:
            ok = compare("set 1 -> set 2", sets[0][0], sets[1][0], metrics) and ok
            if sets[0][1] != sets[1][1]:
                print("  failed shares differ between the sets")
                ok = False
    print("\n%s" % ("STEADY" if ok else "NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
