#!/usr/bin/env python3
"""Run the simulator benchmark on one workload and print one JSON result.

    python3 simbench/run.py --workload rotor-churn --seed 1 --seconds 20 --trace 0

Builds simbench/ (and with it the simulator from src/) in Release under
.bench_build/simbench, runs one measurement, prints a readable report, and
ends with one JSON line:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the separate traced run. The exit status is nonzero,
and no result line is printed, when the build or the program fails; a
failed correctness check prints the result with "correct": false and exits
with status 1. See simbench/README.md.
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
WORKLOADS = ("rotor-churn", "paper-bulk", "faulted-shortflows")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "simbench")


def build():
    """Configures and builds (incrementally after the first run); returns
    the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(out, "simbench")


def source_digest():
    """sha256 over the simulator and benchmark sources: the commit stand-in
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "simbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"simbench: build failed: {e}")
        return 2

    mode = "trace" if args.trace else "e2e"
    try:
        proc = subprocess.run(
            [binary, mode, "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"simbench: no result within {RUN_TIMEOUT_S} s")
        return 2
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"simbench: {mode} run exited with status {proc.returncode}")
        return 2
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    failures = list(out["failures"])
    metrics = out["metrics"]
    expected = expected_metrics(args.trace)
    if sorted(metrics) != sorted(expected):
        failures.append("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(expected))}")
    prov = dict(out["provenance"])
    prov["commit"] = commit()
    prov["source_digest"] = source_digest()

    print(f"simbench {mode}: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    print("metrics:")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    if "reported" in out:
        print("also measured (see README.md for why they are not gated):")
        status = out.get("percentile_status", {})
        for name, m in out["reported"].items():
            note = status.get(name, "")
            note = "" if note in ("", "ok") else f"  ({note})"
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}{note}")
    o = out["outcome"]
    print(f"simulated: {o['sim_events']:.0f} events over {o['sim_span_ms']:g} ms,"
          f" churn_hash {o['churn_hash']:.0f}")
    print(f"checks: {'all passed' if not failures else 'FAILED'}")
    for f in failures:
        print(f"  FAIL {f}")

    result = {
        "correct": not failures,
        "attempted": int(out["attempted"]),
        "failed": min(int(out["attempted"]),
                      int(out["failed"]) + len(failures) - len(out["failures"])),
        "metrics": {name: metrics[name] for name in expected if name in metrics},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
