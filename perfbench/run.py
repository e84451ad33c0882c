#!/usr/bin/env python3
"""Build and run the LDS store benchmark.

    python3 perfbench/run.py --workload coded_read --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (which pulls in the repository's lds_core) into
.bench_build/ under the repository root ($CARGO_TARGET_DIR overrides the
directory), runs one workload, and prints the result object as the last line
of stdout.  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones.  Build output and diagnostics go to stderr.  A detailed
record of every run, host fingerprint included, lands in
<build dir>/results/<workload>-s<seed>-t<trace>.json (with a -tiny suffix
for the self-test's runs); compare.py compares two sets of such records.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_id():
    """Content hash of everything the benchmark binary is built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    """Configure (once) and build lds_perfbench; returns the binary path."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(bdir, f))
                   for f in ("Makefile", "build.ninja")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", bdir, "--target", "lds_perfbench",
                        "-j", str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(bdir, "lds_perfbench")


def run_binary(binary, args):
    """Run the benchmark binary; returns the parsed result object or None."""
    bdir = build_dir()
    cmd = [binary] + args + [
        "--work-dir", os.path.join(bdir, "work"),
        "--out-dir", os.path.join(bdir, "results"),
        "--source-id", source_id(), "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: lds_perfbench exited {proc.returncode}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return None
    return result


def selftest(binary):
    """Tiny-size run of every workload in both modes: each must pass its own
    gates and emit exactly the metrics BENCHMARK.json names, with their
    units; plus the binary's own gate and phase self-checks."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = subprocess.run([binary, "--selftest", "--work-dir",
                         os.path.join(build_dir(), "work")],
                        stdout=sys.stderr, timeout=RUN_TIMEOUT_S).returncode == 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            res = run_binary(binary, ["--workload", w["name"], "--seed", "1",
                                      "--seconds", "0.6", "--trace",
                                      str(trace), "--tiny"])
            got = {} if res is None else {
                n: m["unit"] for n, m in res["metrics"].items()}
            good = res is not None and res["correct"] and got == want
            if not good:
                missing = sorted(set(want.items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(want.items()))
                print(f"selftest {w['name']} trace={trace}: FAIL "
                      f"missing={missing} extra={extra}", file=sys.stderr)
            ok = ok and good
    print("selftest", "ok" if ok else "FAILED", file=sys.stderr)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if "LDS_GF_ISA" in os.environ:
        print("perfbench: refusing to run with LDS_GF_ISA set", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if a.selftest:
        return selftest(binary)
    if not a.workload:
        p.error("--workload is required")
    res = run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                              "--seconds", str(a.seconds),
                              "--trace", str(a.trace)])
    if res is None:
        return 1
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
