#!/usr/bin/env python3
"""The hc2l benchmark: one command, one workload, one JSON line.

    python3 perfbench/run.py --workload point-burst --seed 1 --seconds 30 --trace 0

Run from the root of an hc2l checkout. It builds hc2l, hc2ld and the two
benchmark drivers from source into $CARGO_TARGET_DIR (default .bench_build),
then:

  --trace 0  perfbench_e2e sets up the index and hc2ld, drives hc2ld over
             loopback TCP for --seconds, checks answers against its own
             Dijkstra, and the end-to-end metrics are printed;
  --trace 1  perfbench_e2e runs the workload in alternating untraced and
             traced windows on one daemon, probes the socket round trip and
             checks routes; perfbench_layers then times every layer
             in-process and replays the same request ids through each; the
             per-layer metrics, self times and tracing overhead are printed.

The last stdout line is {"correct","attempted","failed","metrics"}; the lines
before it state sample counts and the side timings that are not metrics.
Workloads, metrics and what each per-layer metric should move: README.md.
"""

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("point-burst", "dispatch-matrix")
TARGETS = ("hc2l_cli", "hc2ld", "perfbench_e2e", "perfbench_layers")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# Who calls whom on the served point path, for self times: a layer's self
# time for one request is its span minus its child's span for the same
# request id (the replay runs each layer separately, so the child is not
# nested in time). api is the sequential facade beside engine; shard, the
# sharded index, sits over core in its own right.
CHILD = {
    "reactor": "wire", "wire": "engine", "engine": "core", "api": "core",
    "shard": "core", "core": "simd", "simd": None,
}

# The workload-specific names of the end-to-end figures, printed on a "#"
# line: (name, unit, source metric or side timing, scale).
NAMED = {
    "point-burst": [("point_qps", "1/s", "pairs_per_s", 1),
                    ("point_p50_us", "us", "p50_us", 1),
                    ("point_p99_us", "us", "p99_us", 1)],
    "dispatch-matrix": [("bulk_pairs_per_s", "1/s", "pairs_per_s", 1),
                        ("bulk_p50_ms", "ms", "p50_us", 1e-3),
                        ("bulk_p99_ms", "ms", "p99_us", 1e-3)],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, log_path=None, timeout=RUN_TIMEOUT_S):
    """Runs cmd in its own session and returns its stdout, or appends all
    its output to log_path. Kills the whole group on timeout."""
    log = open(log_path, "a") if log_path else None
    try:
        proc = subprocess.Popen(
            cmd, stdout=log or subprocess.PIPE,
            stderr=subprocess.STDOUT if log else subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            fail(f"{Path(cmd[0]).name} timed out after {timeout} s")
    finally:
        if log:
            log.close()
    if stderr:
        sys.stderr.write(stderr[-4000:])
    if proc.returncode != 0:
        where = f" (see {log_path})" if log_path else ""
        fail(f"{Path(cmd[0]).name} exited with {proc.returncode}{where}")
    return stdout


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not an hc2l checkout (no CMakeLists.txt or src/)")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    if not (build_dir / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(ROOT), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_PROJECT_hc2l_INCLUDE={HERE / 'perfbench.cmake'}",
             "-DHC2L_BUILD_TESTS=OFF", "-DHC2L_BUILD_BENCHES=OFF",
             "-DHC2L_BUILD_EXAMPLES=OFF"], log, timeout=600)
    run(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
         "--target", *TARGETS], log, timeout=900)


def last_json(stdout, who):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail(f"{who} printed no result")
    return json.loads(lines[-1])


def read_spans(path):
    with open(path, newline="") as f:
        return [(r["layer"], int(r["id"]), int(r["end_ns"]) - int(r["start_ns"]))
                for r in csv.DictReader(f)]


def self_times(work):
    """Median self time per replay layer, plus what one span costs."""
    durations = {}  # layer -> {request id -> ns}
    for name in ("spans-layers.csv", "spans-reactor.csv"):
        for layer, rid, ns in read_spans(work / name):
            durations.setdefault(layer, {})[rid] = ns
    # "trace" spans wrap nothing; a leaf layer has no child span to cancel
    # the clock reads in its own, so they are taken off explicitly.
    overhead = statistics.median(durations["trace"].values())
    metrics = {"trace.span_overhead_ns": (overhead, "ns")}
    for layer, sub in CHILD.items():
        own = durations[layer]
        if sub is None:
            selfs = [ns - overhead for ns in own.values()]
        else:
            selfs = [ns - durations[sub][rid] for rid, ns in own.items()
                     if rid in durations[sub]]
        metrics[f"self.{layer}_ns"] = (statistics.median(selfs), "ns")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (Path.cwd() / build_dir).resolve()
    build(build_dir)
    work = build_dir / "perfbench-work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    e2e = last_json(run([
        str(build_dir / "perfbench_e2e"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--bin", str(build_dir),
        "--work", str(work)]), "perfbench_e2e")
    metrics = {k: (v["value"], v["unit"]) for k, v in e2e["metrics"].items()}
    if args.trace:
        layers = last_json(run([
            str(build_dir / "perfbench_layers"), "--seed", str(args.seed), "--graph", str(work / "graph.gr"),
            "--pairs", str(work / "pairs.txt"), "--work", str(work)]),
            "perfbench_layers")
        metrics.update((k, (v["value"], v["unit"]))
                       for k, v in layers["metrics"].items())
        # The socket layer's own cost: round trip minus the wire layer below.
        metrics["reactor.self_us"] = (
            metrics["reactor.rtt_us"][0] - metrics["wire.point_ns"][0] / 1e3,
            "us")
        metrics.update(self_times(work))
        print(f"# spans: {work}/spans-*.csv")
        overhead = metrics["trace.e2e_overhead_pct"][0]
        iqr = metrics["trace.e2e_overhead_iqr_pct"][0]
        verdict = "resolved" if iqr < abs(overhead) else "unresolved: within the noise"
        print(f"# tracing overhead: {overhead:.3g}% of throughput, median of "
              f"paired rounds, IQR {iqr:.3g}% ({verdict})")

    notes = ", ".join(f"{k}={v['value']:.6g}{v['unit']}"
                      for k, v in e2e["notes"].items())
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {notes}")
    if not args.trace:
        values = {k: v["value"] for k, v in e2e["notes"].items()}
        values.update((k, v) for k, (v, _) in metrics.items())
        named = [("setup_s", "s", "setup_s", 1),
                 ("server_peak_rss_mb", "MB", "server_peak_rss_mb", 1)]
        named += NAMED[args.workload]
        print("# " + ", ".join(f"{name}={values[src] * scale:.6g} {unit}"
                               for name, unit, src, scale in named))
    print(f"# wrong={e2e['wrong']} of checked={e2e['checked']}")
    result = {
        "correct": e2e["wrong"] == 0 and e2e["checked"] > 0,
        "attempted": e2e["attempted"],
        "failed": e2e["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
