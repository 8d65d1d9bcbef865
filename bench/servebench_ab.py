#!/usr/bin/env python3
"""A/B record for the serving benchmark: runs servebench/run.py from two
checkouts in alternating pairs and writes one JSON record.

    python3 bench/servebench_ab.py --parent <dir> [--change <dir>] \
        --run bgp-churn:101-110 --run hot-zipf:101-103 \
        [--seconds 10] [--trace 0] [--parent-label <name>] [--change-label <name>] \
        --out bench/records/<name>.json [--append]

Each --run names a workload and its seeds (a range "a-b" or a list
"a,b,c"); every seed is one pair.  Within a pair the two checkouts run
back to back on the same seed, and which one goes first alternates from
pair to pair, so a drift in host speed hits both sides alike.  Every run
is `python3 servebench/run.py --workload <w> --seed <s> --seconds <n>
--trace <t>` from the root of its checkout, which builds there under
.bench_build/ and writes nothing under servebench/.

The record holds, per workload: the seeds, each run's metrics, and per
metric the median, Q1 and Q3 of each side, the change/parent ratio of the
medians, and the pairs the change won (the better direction comes from
the change's BENCHMARK.json).  It also keeps whether every run printed
"correct": true, whether every traced run's nesting check read ok, and
the failed/attempted totals.  --append adds the
workloads to an existing record (e.g. traced runs next to untraced ones).
The markdown table goes to stdout.
"""
import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",") if s]


def percentile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(xs)
    if not xs:
        return None
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("servebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit("servebench_ab: %s failed in %s (exit %d)" % (" ".join(cmd), checkout,
                                                              proc.returncode))
    result = json.loads(lines[-1])
    result["wall_s"] = round(time.monotonic() - t0, 1)
    # A traced run prints its nesting check (stage times vs the batch) on
    # a line of its own.
    nesting = [l for l in lines if l.startswith("nesting")]
    if nesting:
        result["nesting"] = nesting[-1]
    return result


def directions(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = (m["better"], m.get("unit", ""))
    return out


def summarize(workload, seeds, seconds, trace, runs, better):
    entry = {"workload": workload, "seeds": seeds, "seconds": seconds, "trace": trace,
             "pairs": len(seeds), "metrics": {}, "runs": runs}
    for side in ("parent", "change"):
        entry.setdefault("correct", {})[side] = all(r[side]["correct"] for r in runs)
        if trace:
            entry.setdefault("nesting_ok", {})[side] = all(
                r[side].get("nesting", "").endswith(": ok") for r in runs)
        entry.setdefault("failed", {})[side] = [sum(r[side]["failed"] for r in runs),
                                               sum(r[side]["attempted"] for r in runs)]
    names = [n for n in runs[0]["change"]["metrics"] if n in runs[0]["parent"]["metrics"]]
    for name in names:
        direction, unit = better.get(name, ("lower", ""))
        vals = {side: [r[side]["metrics"][name]["value"] for r in runs]
                for side in ("parent", "change")}
        won = sum(1 for p, c in zip(vals["parent"], vals["change"])
                  if (c < p if direction == "lower" else c > p))
        m = {"unit": unit, "better": direction, "change_won": won}
        for side in ("parent", "change"):
            m[side] = {"median": percentile(vals[side], 0.5), "q1": percentile(vals[side], 0.25),
                       "q3": percentile(vals[side], 0.75)}
        pm = m["parent"]["median"]
        m["ratio"] = m["change"]["median"] / pm if pm else None
        entry["metrics"][name] = m
    return entry


def fmt(v):
    if v is None:
        return "-"
    a = abs(v)
    if a >= 1e5:
        return "%.3fM" % (v / 1e6)
    if a >= 100:
        return "%.0f" % v
    if a >= 1:
        return "%.2f" % v
    return "%.3g" % v


def table(entries):
    out = []
    for e in entries:
        out.append("### %s (%d pairs, seeds %s, %s s, trace %d)\n" %
                   (e["workload"], e["pairs"], ",".join(map(str, e["seeds"])), e["seconds"],
                    e["trace"]))
        out.append("| metric | parent median [Q1, Q3] | change median | change/parent | change won |")
        out.append("|---|---|---|---|---|")
        for name, m in e["metrics"].items():
            p, c = m["parent"], m["change"]
            ratio = "-" if m["ratio"] is None else "%+.1f%%" % (100 * (m["ratio"] - 1))
            out.append("| %s (%s, %s better) | %s [%s, %s] | %s | %s | %d/%d |" %
                       (name, m["unit"], m["better"], fmt(p["median"]), fmt(p["q1"]),
                        fmt(p["q3"]), fmt(c["median"]), ratio, m["change_won"], e["pairs"]))
        out.append("\ncorrect: parent %s, change %s; failed/attempted: parent %d/%d, change %d/%d\n"
                   % (e["correct"]["parent"], e["correct"]["change"], e["failed"]["parent"][0],
                      e["failed"]["parent"][1], e["failed"]["change"][0],
                      e["failed"]["change"][1]))
    return "\n".join(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=ROOT, help="checkout of the change (default: this one)")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEEDS")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--parent-label", help="name of the parent in the record "
                    "(default: its directory name)")
    ap.add_argument("--change-label", help="name of the change in the record")
    ap.add_argument("--out", required=True, help="JSON record to write")
    ap.add_argument("--append", action="store_true", help="extend an existing record")
    args = ap.parse_args()

    better = directions(args.change)
    label = lambda given, path: given or os.path.basename(os.path.abspath(path))
    record = {"benchmark": "servebench", "parent": label(args.parent_label, args.parent),
              "change": label(args.change_label, args.change), "cpus": os.cpu_count(),
              "workloads": []}
    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    seconds = int(args.seconds) if args.seconds == int(args.seconds) else args.seconds
    new_entries = []
    for spec in args.run:
        workload, seeds_text = spec.split(":", 1)
        seeds = parse_seeds(seeds_text)
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(getattr(args, side), workload, seed, seconds, args.trace)
            runs.append(pair)
            print("%s seed %d: %s" % (workload, seed, ", ".join(
                "%s %s" % (side, "ok" if pair[side]["correct"] else "WRONG") for side in order)),
                file=sys.stderr)
        new_entries.append(summarize(workload, seeds, seconds, args.trace, runs, better))
    record["workloads"].extend(new_entries)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(table(new_entries))


if __name__ == "__main__":
    main()
