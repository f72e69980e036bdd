#!/usr/bin/env python3
"""End-to-end vqlsrv benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 25 --trace 0

builds the stock vqlsrv and the vqlbench load generator from this checkout (into
.bench_build/), then runs the workload; the last line of stdout is the JSON
result. Two more modes:

    python3 perfbench/run.py --steady 5 --workload ingest [--seed 1]
        runs the workload on 5 consecutive seeds and prints, per metric, the
        median, quartiles and the quartile spread against BENCHMARK.json's
        bound (the steadiness check the bounds were set with);

    python3 perfbench/run.py --selftest
        the benchmark's own test: the oracle must flag corrupted answers, and
        every workload must run correct at toy scale untraced, and on the
        small archive traced.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
RUNS = os.path.join(ROOT, ".bench_runs")
# A run must end within 180 s; vqlbench is killed (with the vqlsrv it
# started) past this many seconds. The slowest run, a traced lookup, takes
# about a minute.
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("vqldb sources not found next to perfbench/ (expected src/)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "vqlbench",
                      "-j", str(os.cpu_count() or 2)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed (log: %s)" % log_path)
    return (os.path.join(BUILD, "vqlbench"),
            os.path.join(BUILD, "vqldb", "tools", "vqlsrv"))


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "none"
    except OSError:
        pass
    return "unknown"


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def run_vqlbench(binary, vqlsrv, extra):
    """Runs vqlbench in its own process group; returns (rc, stdout)."""
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(RUNS, exist_ok=True)
    cmd = [binary, "--vqlsrv", vqlsrv, "--workdir", WORK, "--record-dir",
           RUNS, "--build-type", build_type(), "--commit", commit()] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die("vqlbench timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steady(binary, vqlsrv, args):
    contract = load_contract()
    metrics = contract["per_layer"] if args.trace else contract["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    for k in range(args.steady):
        seed = args.seed + k
        rc, out = run_vqlbench(binary, vqlsrv, [
            "--workload", args.workload, "--seed", str(seed), "--seconds",
            str(args.seconds), "--trace", "1" if args.trace else "0"])
        result = last_json(out) if rc == 0 else None
        if result is None or not result["correct"]:
            sys.stdout.write(out)
            die("seed %d failed (rc %d)" % (seed, rc))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)
    print("%-28s %12s %12s %12s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in metrics:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print("%-28s %12.5g %12.5g %12.5g %8.4f %8s%s" %
              (m["name"], med, q1, q3, spread,
               "-" if bound is None else bound, flag))


def selftest(binary, vqlsrv):
    rc = subprocess.call([binary, "--check-oracle"])
    if rc != 0:
        die("oracle self test failed")
    contract = load_contract()
    for w in contract["workloads"]:
        for trace in ("0", "1"):
            # A toy request takes microseconds, of which the spans' own clock
            # reads are a few percent: a traced toy run is rightly flagged
            # by the tracing-overhead check, so traced runs use the small
            # archive, for three seconds (analytics replays that much).
            rc, out = run_vqlbench(binary, vqlsrv, [
                "--workload", w["name"], "--seed", "1", "--seconds",
                "1" if trace == "0" else "3", "--trace", trace,
                "--size", "toy" if trace == "0" else "small"])
            result = last_json(out) if rc == 0 else None
            wanted = contract["per_layer" if trace == "1" else "end_to_end"]
            if (result is None or not result["correct"] or
                    result["failed"] != 0 or
                    sorted(result["metrics"]) != sorted(m["name"] for m in wanted)):
                sys.stdout.write(out)
                die("selftest failed: %s trace %s" % (w["name"], trace))
            print("selftest %s trace %s: ok (%d operations)" %
                  (w["name"], trace, result["attempted"]))
    print("selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not args.selftest and not args.workload:
        die("--workload is required", 2)
    binary, vqlsrv = build()
    if args.selftest:
        selftest(binary, vqlsrv)
        return 0
    if args.steady:
        steady(binary, vqlsrv, args)
        return 0
    rc, out = run_vqlbench(binary, vqlsrv, [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds",
        str(args.seconds), "--trace", str(args.trace)])
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
