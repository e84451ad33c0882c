#!/usr/bin/env python3
"""Compare two sets of benchmark records, only on matching host fingerprints.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records run.py leaves in <build dir>/results
(<workload>-s<seed>-t<trace>.json; the self-test's -tiny records and runs
marked incorrect are skipped).  Records of both sets must share one host
fingerprint (CPU model, nproc, GF ISA, kernel, build type, data_dir
filesystem); the sources (git sha, source id) are what is being compared and
may differ.  For every workload and end-to-end metric the script prints the
median and quartile spread of each side and flags a change worse than the
metric's bound in BENCHMARK.json (exit 1); per-layer medians are listed side
by side without a verdict.  Mismatched fingerprints exit 2.
"""
import glob
import json
import os
import statistics
import sys

HOST_KEYS = ("cpu_model", "nproc", "gf_isa", "kernel", "build_type", "data_fs")


def load(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-t[01].json"))):
        with open(path) as f:
            r = json.load(f)
        if r.get("correct"):
            records.append(r)
    return records


def host(r):
    return tuple(r["fingerprint"].get(k) for k in HOST_KEYS)


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("no correct records in one of the directories", file=sys.stderr)
        return 2
    hosts = {host(r) for r in base + new}
    if len(hosts) != 1:
        print("fingerprints differ; refusing to compare:", file=sys.stderr)
        for h in sorted(hosts, key=str):
            print("  " + ", ".join(f"{k}={v}" for k, v in zip(HOST_KEYS, h)),
                  file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for w in sorted({r["workload"] for r in base + new}):
        for trace in (0, 1):
            rows = {}
            for side, recs in (("base", base), ("new", new)):
                for r in recs:
                    if r["workload"] == w and r["trace"] == trace:
                        for name, m in r["metrics"].items():
                            rows.setdefault(name, {}).setdefault(
                                side, []).append(m["value"])
            if not rows:
                continue
            print(f"\n{w} ({'per layer' if trace else 'end to end'})")
            for name, sides in rows.items():
                if "base" not in sides or "new" not in sides:
                    continue
                b_med, b_spread = summary(sides["base"])
                n_med, n_spread = summary(sides["new"])
                change = (n_med - b_med) / abs(b_med) if b_med else 0.0
                verdict = ""
                if name in e2e:
                    m = e2e[name]
                    loss = -change if m["better"] == "higher" else change
                    if loss > m["bound"]:
                        verdict = f"  WORSE than bound {m['bound']}"
                        worse += 1
                print(f"  {name:30s} {b_med:12.5g} ±{b_spread:5.3f} -> "
                      f"{n_med:12.5g} ±{n_spread:5.3f} ({change:+.3f}){verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
