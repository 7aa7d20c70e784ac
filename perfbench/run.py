#!/usr/bin/env python3
"""Benchmark entry point for the Tempest/Typhoon simulator.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig3_fit --seed 1 --seconds 20 --trace 0

Builds perfbench/ttbench from the simulator sources into .bench_build/
(once; later runs only check that it is up to date), runs one workload
for --seconds host seconds, checks every simulated result against
perfbench/references.json, and prints one JSON object as the last line
of standard output:

    {"correct": true, "attempted": 110, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. A host fingerprint and the full ttbench report of
every run are written to .bench_out/. The exit code is 0 only when every
simulated result is correct; 2 means the benchmark could not run at all
(for instance, the simulator sources are missing).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("fig3_fit", "cache4k_custom", "fault_campaign")

# ttbench runs for --seconds plus a warm-up pass, the layer drivers and
# the pass in flight at the deadline; this bounds a hung run.
TTBENCH_TIMEOUT_S = 150


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def fail_setup(msg):
    log(msg)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--references",
                   default=os.path.join(HERE, "references.json"),
                   help="reference checksums and cycles (default: %(default)s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def build():
    """Configure and build ttbench; its output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "ttbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail_setup("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "ttbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def check_references(report, refs, seed):
    """Count the case executions whose results disagree with refs.

    Checksums are checked on every seed; simulated cycles and network
    message counts only on the recorded seed, so a held-out seed can
    confirm a later claim.
    """
    failed, problems = 0, []
    recorded = seed == refs["recorded_seed"]
    for case in report["cases"]:
        shard = case["key"].startswith("shard:")
        key = case["key"][len("shard:"):] if shard else case["key"]
        ref = refs["cases"].get(key)
        why = None
        if ref is None:
            why = "no reference"
        elif case["checksum"] != ref["checksum"]:
            why = "checksum %r != reference %r" % (case["checksum"],
                                                   ref["checksum"])
        elif recorded and case["cycles"] != ref["cycles"]:
            why = "sim_cycles %d != reference %d" % (case["cycles"],
                                                     ref["cycles"])
        elif (recorded and "net_messages" in ref
              and case["net_messages"] != ref["net_messages"]):
            why = "net.messages %d != reference %d" % (case["net_messages"],
                                                       ref["net_messages"])
        if why:
            # A pass case ran once per pass, each with the same result
            # (ttbench fails any pass that differs from the first).
            failed += 1 if shard else int(report["passes"])
            problems.append(case["key"] + ": " + why)
    return failed, problems


def main(argv):
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # build or ttbench child before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.references) as f:
        refs = json.load(f)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    binary = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%s" % (
        args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", stem + "-spans.json"]

    fingerprint = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_before": os.getloadavg(),
    }
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TTBENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("ttbench did not finish within %d s" % TTBENCH_TIMEOUT_S)
        return 1
    fingerprint["loadavg_after"] = os.getloadavg()
    fingerprint["wall_s"] = time.monotonic() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        log("ttbench exited with code %d" % proc.returncode)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    fingerprint["build_type"] = report["build_type"]
    fingerprint["sim_threads"] = report["sim_threads"]
    fingerprint["process_threads"] = report["process_threads"]

    attempted = int(report["attempted"])
    failed = int(report["failed"])
    problems = list(report["failures"])
    ref_failed, ref_problems = check_references(report, refs, args.seed)
    failed += ref_failed
    problems += ref_problems
    if report["sim_threads"] != 1:
        failed += 1
        problems.append("simulation ran %d engine threads, not 1"
                        % report["sim_threads"])
    failed = min(failed, attempted)

    # fail_frac is 0 whenever results are right, and a bound relative
    # to a median of 0 allows nothing, so the report carries its
    # complement.
    measured = dict(report["metrics"], **report["layers"])
    measured["ok_frac"] = (attempted - failed) / attempted
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail_setup("ttbench reported no metric " + m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    with open(stem + ".json", "w") as f:
        json.dump({"fingerprint": fingerprint, "problems": problems,
                   "report": report, "result": result}, f, indent=1)
    log("host: %d cores, %s, load %.2f -> %.2f, %s build, %d thread(s)" % (
        fingerprint["nproc"], fingerprint["cpu_model"],
        fingerprint["loadavg_before"][0], fingerprint["loadavg_after"][0],
        fingerprint["build_type"], fingerprint["process_threads"]))
    for p in problems:
        log("FAILED", p)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
