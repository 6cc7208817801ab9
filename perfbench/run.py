#!/usr/bin/env python3
"""Repository benchmark: builds the program, serves each workload from a
fresh fairbc_server and measures it over TCP, end to end; with --trace 1
it also times every layer in-process. See perfbench/README.md.

    python3 perfbench/run.py --workload enum_heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Human-readable report lines go to stdout first (each prefixed "# "); the
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}} with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1). Build output and
diagnostics go to stderr. The exit code is 0 only when every check of
the correctness gate passed.
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
PERFBENCH = os.path.join(BUILD, "fairbc_perfbench")
SERVER = os.path.join(BUILD, "fairbc", "fairbc_server")

WORKLOADS = ("enum_heavy", "reduce_heavy", "service_mix")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ttfr_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

PER_LAYER = {
    "graph.load_s": "s",
    "graph.snapshot_bytes": "bytes",
    "reduce.s": "s",
    "reduce.construct_s": "s",
    "reduce.color_s": "s",
    "reduce.peel_s": "s",
    "reduce.compact_s": "s",
    "reduce.survivor_ratio": "ratio",
    "reduce.peak_bytes": "bytes",
    "engine.s": "s",
    "engine.search_nodes": "count",
    "engine.maximal_bicliques": "count",
    "engine.results": "count",
    "engine.results_per_node": "ratio",
    "engine.split_subtrees": "count",
    "kernel.calls": "count",
    "kernel.steps": "count",
    "kernel.merge": "count",
    "kernel.gallop": "count",
    "kernel.bitset": "count",
    "sink.digest_ns_per_result": "ns",
    "sink.chunk_ns_per_result": "ns",
    "sink.topk_ns_per_result": "ns",
    "pipeline.overhead_s": "s",
    "executor.latency_p50_ms": "ms",
    "executor.executions": "count",
    "executor.coalesced": "count",
    "cache.hit_ratio": "ratio",
    "cache.payload_hits": "count",
    "cache.evictions": "count",
    "serialize.ns_per_result": "ns",
    "serialize.reply_bytes": "bytes",
    "frontend.overhead_p50_ms": "ms",
    "wire.bytes_out": "bytes/req",
    "wire.frames_out": "frames/req",
    "wire.ping_rtt_p50_us": "us",
    "server.reads": "reads/req",
    "server.writes": "writes/req",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.self_query_s": "s",
    "trace.self_reduce_s": "s",
    "trace.self_construct_s": "s",
    "trace.self_color_s": "s",
    "trace.self_peel_s": "s",
    "trace.self_compact_s": "s",
    "trace.self_engine_s": "s",
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "fairbc_perfbench",
         "fairbc_server"],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0:
        raise BenchError("build failed")


def last_json(text, what):
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError(what + " printed no result")
    return json.loads(lines[-1])


def perfbench(args, timeout):
    proc = subprocess.run([PERFBENCH] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    result = last_json(proc.stdout, "fairbc_perfbench " + args[0])
    if proc.returncode != 0:
        raise BenchError("fairbc_perfbench %s exited %d" % (args[0], proc.returncode))
    return result


class Server:
    """One fairbc_server process on an ephemeral port."""

    def __init__(self, work):
        self.log_path = os.path.join(work, "server.log")
        self.proc = None
        self.port = None

    def start(self):
        log_file = open(self.log_path, "wb")
        self.proc = subprocess.Popen([SERVER, "--port=0"], stdin=subprocess.DEVNULL,
                                     stdout=log_file, stderr=log_file)
        log_file.close()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as f:
                for line in f.read().decode(errors="replace").splitlines():
                    if line.startswith("listening on 127.0.0.1:"):
                        self.port = int(line.rsplit(":", 1)[1])
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise BenchError("fairbc_server did not start")

    def command(self, line):
        with socket.create_connection(("127.0.0.1", self.port), timeout=60) as s:
            s.sendall(line.encode() + b"\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
            s.sendall(b"quit\n")
        reply = json.loads(data.decode())
        if not reply.get("ok"):
            raise BenchError("server refused %r: %s" % (line, reply))
        return reply

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                self.command("stop")
            except (OSError, ValueError, BenchError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc = None


def setup_once(common, work, server):
    """Graph generation, snapshot write, server start and snapshot load."""
    start = time.perf_counter()
    prepared = perfbench(["prepare"] + common, timeout=120)
    server.start()
    for name in prepared["graphs"].split(","):
        server.command("load name=%s path=%s format=snapshot"
                       % (name, os.path.join(work, name + ".fbs")))
    return time.perf_counter() - start


def run_workload(workload, seed, seconds, trace, scale):
    work = os.path.join(BUILD, "perfbench-work", workload)
    os.makedirs(work, exist_ok=True)
    common = ["--workload=" + workload, "--seed=%d" % seed, "--dir=" + work,
              "--scale=%r" % scale]
    server = Server(work)
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            setups.append(setup_once(common, work, server))
            if i + 1 < SETUP_REPEATS:
                server.stop()
        load = perfbench(
            ["load"] + common + ["--port=%d" % server.port,
                                 "--server-pid=%d" % server.proc.pid,
                                 "--seconds=%r" % seconds,
                                 "--trace=%d" % int(trace)],
            timeout=seconds + 90)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    layers = perfbench(["layers"] + common, timeout=150) if trace else {}

    e2e = {
        "setup_s": statistics.median(setups),
        "throughput_qps": load["throughput_qps"],
        "latency_p50_ms": load["latency_p50_ms"],
        "latency_p99_ms": load["latency_p99_ms"],
        "ttfr_p50_ms": load["ttfr_p50_ms"],
        "peak_rss_mb": peak_rss,
        "cpu_s": load["cpu_s"],
    }
    attempted = int(load["attempted"] + layers.get("attempted", 0))
    failed = int(load["failed"] + layers.get("failed", 0))

    report = [
        "meta %s" % json.dumps(load["meta"], sort_keys=True),
        "workload %s seed %d seconds %g trace %d scale %g"
        % (workload, seed, seconds, int(trace), scale),
        "requests %d (latency samples; %d lie beyond p99), ttfr samples %d"
        % (load["requests"], load["latency_beyond_p99"], load["ttfr_samples"]),
        "mix: stream %.3f, top_k %.3f, bcem %.3f; cache-hit share %.3f"
        % (load["share_stream"], load["share_topk"], load["share_bcem"],
           load["share_cache_hit"]),
        "correctness gate: %d attempted, %d failed, %d streamed bicliques verified"
        % (attempted, failed, load["verified_bicliques"]),
        "error_rate = %.9g ratio" % (failed / max(1, attempted)),
    ]
    report += ["%s = %.9g %s" % (k, v, END_TO_END[k]) for k, v in e2e.items()]
    per_layer = {}
    if trace:
        for name in PER_LAYER:
            per_layer[name] = layers[name] if name in layers else load[name]
        report += ["%s = %.9g %s" % (k, v, PER_LAYER[k]) for k, v in per_layer.items()]
        report.append("chrome trace: %s" % os.path.join(work, "trace_%s.json" % workload))
    for line in report:
        print("# " + line)

    chosen, units = (per_layer, PER_LAYER) if trace else (e2e, END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()},
    }
    return result


def selftest():
    """Tiny-scale pass over every workload: finishes in seconds, prints
    every metric named in BENCHMARK.json with its unit, and checks the
    percentile code against its oracle."""
    perfbench(["selftest"], timeout=60)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    problems = []
    for entry, table in [(e, END_TO_END) for e in spec["end_to_end"]] + \
                        [(e, PER_LAYER) for e in spec["per_layer"]]:
        if table.get(entry["name"]) != entry["unit"]:
            problems.append("BENCHMARK.json metric %s/%s unknown to run.py"
                            % (entry["name"], entry["unit"]))
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    for workload in WORKLOADS:
        for trace in (False, True):
            start = time.perf_counter()
            result = run_workload(workload, seed=1, seconds=1.0, trace=trace,
                                  scale=0.05)
            want = [e["name"] for e in spec["per_layer" if trace else "end_to_end"]]
            got = result["metrics"]
            for name in want:
                if name not in got or "unit" not in got[name]:
                    problems.append("%s trace=%d lacks %s" % (workload, trace, name))
            if not result["correct"]:
                problems.append("%s trace=%d failed its correctness gate"
                                % (workload, trace))
            log("selftest: %s trace=%d ok in %.1f s"
                % (workload, trace, time.perf_counter() - start))
    for p in problems:
        log("selftest: " + p)
    print(json.dumps({"selftest": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        build()
        if args.selftest:
            return selftest()
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), scale=1.0)
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
