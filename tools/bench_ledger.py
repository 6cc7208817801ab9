#!/usr/bin/env python3
"""Bench ledger: runs perfbench on two checkouts in alternating pairs and
writes one BENCH_<pr>.json with every run's metrics and each side's
median and quartiles.

    python3 tools/bench_ledger.py --parent ../fairbc-parent --change . \\
        --pr N --workload reduce_heavy --workload enum_heavy --pairs 10

Each pair runs `perfbench/run.py --workload W --seed S --seconds T
--trace X` once in each checkout, with T the `run_seconds` of the change
checkout's BENCHMARK.json, so the ledger measures what the benchmark
measures; pair i runs the parent first when i is even and the change
first when i is odd, so drift over the session hits both sides alike.
Each side builds into its own build tree (<build-root>/parent,
<build-root>/change, passed as CARGO_TARGET_DIR). Both sides inherit the
environment; the glibc allocator settings in it (MALLOC_*,
GLIBC_TUNABLES) are recorded, since they move peak_rss_mb.
Times are reported, never judged here: the ledger keeps the raw values so
a later diff can weigh a delta against the measured spread. Only the
Python standard library is used.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def git_state(checkout):
    """(sha, dirty) of a git checkout, or (None, None) outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout] + list(args),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None, None
    status = git("status", "--porcelain", "--untracked-files=no")
    return head.stdout.strip(), bool(status.stdout.strip())


def run_once(checkout, build_dir, workload, seed, seconds, trace):
    """One perfbench run; returns its final JSON object."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=seconds + 900)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode not in (0, 1) or not lines:
        log(proc.stderr[-4000:])
        raise RuntimeError("%s exited %d in %s" % (" ".join(cmd), proc.returncode,
                                                   checkout))
    return json.loads(lines[-1])


def run_seconds(checkout):
    """The benchmark's run length, from the checkout's BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def spread(values):
    """Median and inclusive quartiles of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs):
    """Median and quartiles of every metric, per side."""
    summary = {side: {} for side in SIDES}
    for run in runs:
        for name, metric in run["metrics"].items():
            summary[run["side"]].setdefault(name, {"unit": metric["unit"],
                                                   "values": []})
            summary[run["side"]][name]["values"].append(metric["value"])
    for metrics in summary.values():
        for entry in metrics.values():
            entry.update(spread(entry.pop("values")))
    return summary


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.split("\n")[2:]))
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--pr", required=True, type=int,
                        help="number that names the ledger, BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", required=True,
                        help="perfbench workload; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0,
                        help="perfbench seed (non-zero relabels the graphs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds the per-layer metrics (reduce.*, ...)")
    parser.add_argument("--build-root", default=".bench_ledger",
                        help="parent of the two build trees")
    parser.add_argument("--out", help="ledger path (default BENCH_<pr>.json)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    seconds = run_seconds(checkouts["change"])
    builds = {side: os.path.abspath(os.path.join(args.build_root, side))
              for side in SIDES}
    ledger = {
        "pr": args.pr,
        "created_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "protocol": {
            "command": "perfbench/run.py --workload W --seed %d --seconds %g "
                       "--trace %d" % (args.seed, seconds, args.trace),
            "pairs": args.pairs,
            "order": "pair i runs the parent first when i is even, "
                     "the change first when i is odd",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
            "allocator_env": {k: v for k, v in sorted(os.environ.items())
                              if k.startswith("MALLOC_")
                              or k == "GLIBC_TUNABLES"},
        },
        "checkouts": {},
        "workloads": {},
    }
    for side in SIDES:
        sha, dirty = git_state(checkouts[side])
        ledger["checkouts"][side] = {"sha": sha, "dirty": dirty}

    failed_runs = 0
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                result = run_once(checkouts[side], builds[side], workload,
                                  args.seed, seconds, args.trace)
                runs.append({"pair": pair, "side": side, "position": position,
                             "correct": result["correct"],
                             "attempted": result["attempted"],
                             "failed": result["failed"],
                             "metrics": result["metrics"]})
                failed_runs += not result["correct"]
                p50 = result["metrics"].get("latency_p50_ms", {}).get("value")
                log("%s pair %d %s: correct=%s latency_p50_ms=%s"
                    % (workload, pair, side, result["correct"], p50))
        ledger["workloads"][workload] = {"runs": runs,
                                         "summary": summarize(runs)}

    out = args.out or "BENCH_%d.json" % args.pr
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s (%d failed runs)" % (out, failed_runs))
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
