#!/usr/bin/env python3
"""Build the CUP simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json for --trace 0, the per-layer
metrics for --trace 1.  The line before it records where the numbers
come from (source revision, host, seeds, digests, quartiles).  The exit
status is 0 only when every output digest and invariant checked out.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "cupbench.exe")
OUT = ".perfbench_out"
DEADLINE_S = 175


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build(timeout):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project and lib/ here; run from the root of a CUP checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/cupbench.exe"],
            capture_output=True, text=True, env=env, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("build failed")


def source_digest():
    """Hash of the simulator's sources, standing in for a git revision in
    checkouts that are not repositories."""
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".tsv")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    if not os.path.isdir(".git"):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spread(xs):
    if len(xs) < 2:
        return {"median": xs[0] if xs else None, "q1": None, "q3": None, "n": len(xs)}
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.monotonic()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build(timeout=850)
    os.makedirs(OUT, exist_ok=True)
    left = DEADLINE_S - (time.monotonic() - started)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join("perfbench", "digests.tsv"), "--out", OUT]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=max(left, 60))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % args.workload)
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr)
        fail("cupbench exited with status %d" % r.returncode)
    out = json.loads(r.stdout.strip().splitlines()[-1])
    rec = out["record"]

    if args.trace:
        values = rec["layers"]
        stats = {}
    else:
        # Host times are scaled to the speed at which the reference kernel
        # takes calib_reference_s: the raw median times that ratio over the
        # kernel's median in this run.
        samples = rec["samples"]
        stats = {k: spread(v) for k, v in samples.items()}
        speed = rec["calib_reference_s"] / stats["calib_s"]["median"]

        def scaled(name, power):
            m = stats[name]["median"]
            return None if m is None else m * speed ** power

        values = {"wall_s": scaled("wall_s", 1), "setup_s": scaled("setup_s", 1),
                  "events_per_s": scaled("events_per_s", -1)}
        values.update(rec["values"])
    missing = [m for m in units if values.get(m) is None]
    problems = rec["problems"] + ["metric %s missing" % m for m in missing]
    correct = not problems and rec["failed"] == 0

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "host": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                 "ocaml": out["ocaml"]},
        "digest": rec["digest"],
        "digest_pinned": out["pinned"],
        "reference_seed": rec.get("reference_seed"),
        "holdout_seed": rec.get("holdout_seed"),
        "holdout_digest": rec.get("holdout_digest"),
        "spread": stats,
        "problems": problems,
    }
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {m: {"value": values[m], "unit": u}
                    for m, u in units.items() if m not in missing},
    }
    with open(os.path.join(OUT, "results.jsonl"), "a") as f:
        f.write(json.dumps({"provenance": provenance, "result": result}) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
