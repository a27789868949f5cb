#!/usr/bin/env python3
r"""Benchmark entry point (README.md in this directory describes it).

Builds the benchmark program and the `netsample` CLI from this checkout,
generates the capture from the seed, runs one workload, and prints the
program's metrics with the result object as the last line of stdout:

  python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Spread report: run one workload N times with seeds seed .. seed+N-1 and print
each metric's median, quartiles and interquartile range over the median:

  python3 perfbench/run.py --workload serve_windows --seed 1 --seconds 30 \
      --spread 10

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the capture and trace store go to a work directory inside it that
is removed after the run.
"""
import argparse
import ctypes
import fcntl
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_grid", "shard_lease", "serve_windows")
RUN_TIMEOUT_S = 170
PR_SET_CHILD_SUBREAPER = 36


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures and lets CMake bring the two targets up to date."""
    os.makedirs(bdir, exist_ok=True)
    out = os.path.join(bdir, "perfbench")
    with open(os.path.join(bdir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                        "netsample_cli", "-j", "4"],
                       stdout=sys.stderr, check=True)
    return (os.path.join(out, "perfbench"),
            os.path.join(out, "netsample"))


def reap_all(pgid):
    """Stops whatever the run left behind and waits for every process."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_once(bench, cli, bdir, workload, seed, seconds, trace):
    """One run; returns (exit code, the program's stdout)."""
    work = os.path.join(bdir, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        pcap = os.path.join(work, "capture.pcap")
        subprocess.run([bench, "gen", "--seed", str(seed), "--out", pcap],
                       stdout=sys.stderr, check=True, timeout=120)
        proc = subprocess.Popen(
            [bench, "run", "--workload", workload, "--trace", str(trace),
             "--seed", str(seed), "--seconds", str(seconds), "--pcap", pcap,
             "--netsample", cli, "--work", work],
            stdout=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("run: timed out after %d s" % RUN_TIMEOUT_S)
            out, code = "", 124
        else:
            code = proc.returncode
        reap_all(proc.pid)
        return code, out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_of(out):
    """The result object on the program's last line, or None."""
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def spread(bench, cli, bdir, args):
    values, units, failures = {}, {}, 0
    for i in range(args.spread):
        seed = args.seed + i
        code, out = run_once(bench, cli, bdir, args.workload, seed,
                             args.seconds, args.trace)
        res = result_of(out)
        if code != 0 or res is None or not res["correct"]:
            failures += 1
            log(out)
            log("seed %d: exit %d" % (seed, code))
            continue
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, json.dumps(res["metrics"])), flush=True)
    print("%-36s %14s %14s %14s %8s  %s" %
          ("metric", "median", "q1", "q3", "iqr/med", "unit"))
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = (statistics.quantiles(v, n=4) if len(v) > 1
                     else (med, med, med))
        rel = (q3 - q1) / abs(med) if med else float("inf")
        print("%-36s %14.6g %14.6g %14.6g %8.4f  %s" %
              (name, med, q1, q3, rel, units[name]))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spread", type=int, default=0,
                   help="run N seeds and print each metric's quartiles")
    args = p.parse_args()

    # Processes the benchmark leaves orphaned are re-parented here, so they
    # can be stopped and waited for.
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)

    bdir = build_dir()
    try:
        bench, cli = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    if args.spread > 0:
        return spread(bench, cli, bdir, args)
    code, out = run_once(bench, cli, bdir, args.workload, args.seed,
                         args.seconds, args.trace)
    if result_of(out) is None:
        log(out)
        log("run: no result (exit %d)" % code)
        return code or 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
