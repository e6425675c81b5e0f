#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_query.json.

Compares a freshly emitted snapshot against the committed one and fails on
regressions beyond a threshold (default 25%). Two tiers:

- The dimensionless simd-vs-scalar kernel speedup ratio gates on every
  runner whose SIMD kernel matches the committed snapshot's.
- Absolute nanosecond numbers (point/batch/kernel) additionally gate when
  the (CPU model, host name) pair also matches — they are not comparable
  across machines, and virtualized CPU strings alone don't identify one.

Everything is skipped — with an explanation, exit 0 — when the two snapshots
were produced by different SIMD kernels (e.g. a non-AVX2 CI runner measuring
against an AVX2-recorded baseline).

Usage:
  tools/check_bench.py --fresh build/BENCH_query.json \
      --committed BENCH_query.json [--threshold 0.25]
"""

import argparse
import json
import sys

# (human name, path into the JSON object) of every gated metric; lower is
# better for all of them.
GATED_METRICS = [
    ("point query ns", ("ns_per_query",)),
    ("batch target ns", ("ns_per_batch_target",)),
    ("kernel simd ns", ("kernel_len128_ns", "simd")),
    ("kernel scalar ns", ("kernel_len128_ns", "scalar")),
]


def lookup(obj, path):
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj if isinstance(obj, (int, float)) else None


def kernel_speedup(snapshot):
    """Scalar-over-simd kernel time ratio; None if either is missing."""
    simd = lookup(snapshot, ("kernel_len128_ns", "simd"))
    scalar = lookup(snapshot, ("kernel_len128_ns", "scalar"))
    if simd is None or scalar is None or simd <= 0:
        return None
    return scalar / simd


def directed_entry_ratio(snapshot):
    """Contracted-over-uncontracted directed label-entry ratio.

    Builds are deterministic, so the ratio is CPU-independent (like the
    kernel speedup) and gates on every runner: a regression means the
    degree-one contraction stopped stripping pendant chains (or the
    uncontracted baseline shrank without the contracted path following).
    Returns None when the "directed" section is missing on either side —
    sections are append-only, mirroring the per-dataset policy.
    """
    contracted = lookup(snapshot, ("directed", "contracted", "label_entries"))
    uncontracted = lookup(
        snapshot, ("directed", "uncontracted", "label_entries"))
    if contracted is None or uncontracted is None or uncontracted <= 0:
        return None
    return contracted / uncontracted


def update_ratio_datasets(snapshot):
    """Per-dataset recomputed/total label-entry ratio of the scoped repair.

    The scoped repair walk is deterministic in (graph, delta batch), so the
    ratio is CPU-independent and gates on every runner: a regression means
    the repair stopped cutting the walk off at clean subtrees (drifting back
    toward a full rebuild). Returns {} when the "update_latency" section is
    missing — sections are append-only, mirroring the per-dataset policy.
    """
    section = snapshot.get("update_latency")
    if not isinstance(section, dict):
        return {}
    datasets = section.get("datasets")
    if not isinstance(datasets, dict):
        return {}
    out = {}
    for name, entry in datasets.items():
        ratio = lookup(entry, ("repair_ratio",))
        if ratio is not None:
            out[name] = (ratio, entry.get("scoped"))
    return out


def parallel_threads(snapshot):
    return lookup(snapshot, ("parallel", "hardware_threads"))


# Hard floor on the mmap-vs-heap cold-open speedup of the large_graph
# section. The mapped open parses only the section table and the small
# metadata section while the heap open copies and scans every label byte,
# so the ratio is structural: it cannot erode to single digits without the
# mmap path having regressed to copying (or the heap path to mapping).
OPEN_SPEEDUP_FLOOR = 10.0


def api_tag(snapshot):
    """Which API produced the snapshot's end-to-end numbers.

    Benches migrated to the hc2l::Router facade tag their sections with
    "api": "router"; pre-facade snapshots carry no tag and count as "core".
    Absolute nanosecond numbers measured through different API layers are
    not comparable (the facade adds dispatch/validation around the hot
    calls), so a tag mismatch skips them — same policy as a machine
    mismatch. The JSON keys themselves are unchanged by the migration.
    """
    tag = snapshot.get("api")
    if tag is None and isinstance(snapshot.get("parallel"), dict):
        tag = snapshot["parallel"].get("api")
    return tag if tag is not None else "core"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", required=True,
                        help="snapshot emitted by this run")
    parser.add_argument("--committed", required=True,
                        help="snapshot committed in the repo")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args()

    try:
        with open(args.fresh) as f:
            fresh = json.load(f)
        with open(args.committed) as f:
            committed = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_bench: cannot load snapshots ({e}); failing")
        return 1

    fresh_kernel = fresh.get("kernel")
    committed_kernel = committed.get("kernel")
    if fresh_kernel != committed_kernel:
        print(f"check_bench: SKIP — kernel mismatch (fresh={fresh_kernel!r}, "
              f"committed={committed_kernel!r}); numbers not comparable on "
              f"this runner")
        return 0
    failures = []

    # CPU-independent gate, always active: the simd-vs-scalar kernel speedup
    # is dimensionless, so it survives runner changes. A kernel regression
    # (or a scalar "improvement" that really means the simd path stopped
    # engaging) collapses this ratio.
    fresh_speedup = kernel_speedup(fresh)
    committed_speedup = kernel_speedup(committed)
    if fresh_speedup is not None and committed_speedup is not None:
        ratio = fresh_speedup / committed_speedup
        verdict = "OK" if ratio >= 1.0 - args.threshold else "REGRESSION"
        print(f"check_bench: kernel simd speedup: "
              f"committed={committed_speedup:.2f}x fresh={fresh_speedup:.2f}x "
              f"ratio={ratio:.2f} {verdict}")
        if verdict != "OK":
            failures.append("kernel simd speedup")
    else:
        print("check_bench: kernel simd speedup: missing in a snapshot, "
              "skipped")

    # Second CPU-independent gate: the directed index's contraction must
    # keep delivering its label-count reduction. Lower is better; a fresh
    # ratio beyond the committed one by more than the threshold fails.
    fresh_ratio = directed_entry_ratio(fresh)
    committed_ratio = directed_entry_ratio(committed)
    if fresh_ratio is not None and committed_ratio is not None \
            and committed_ratio > 0:
        rel = fresh_ratio / committed_ratio
        verdict = "OK" if rel <= 1.0 + args.threshold else "REGRESSION"
        print(f"check_bench: directed contraction entry ratio: "
              f"committed={committed_ratio:.3f} fresh={fresh_ratio:.3f} "
              f"rel={rel:.2f} {verdict}")
        if verdict != "OK":
            failures.append("directed contraction entry ratio")
    else:
        print("check_bench: directed contraction entry ratio: missing in a "
              "snapshot, skipped")

    # Third CPU-independent gate: the scoped label repair must keep reusing
    # clean subtrees. The ratio is per dataset and deterministic; a fresh
    # ratio beyond the committed one by more than the threshold fails. A
    # repair that silently degraded to a full rebuild fails outright.
    fresh_upd = update_ratio_datasets(fresh)
    committed_upd = update_ratio_datasets(committed)
    if not fresh_upd or not committed_upd:
        missing_in = "fresh" if not fresh_upd else "committed"
        print(f"check_bench: update repair ratio: update_latency section "
              f"not in the {missing_in} snapshot, skipped")
    else:
        for name in sorted(set(fresh_upd) & set(committed_upd)):
            fresh_r, fresh_scoped = fresh_upd[name]
            committed_r, _ = committed_upd[name]
            if fresh_scoped is False:
                print(f"check_bench: update repair ratio {name!r}: fresh "
                      f"repair fell back to a FULL REBUILD")
                failures.append(f"update_latency.{name}.scoped")
                continue
            if committed_r <= 0:
                continue
            rel = fresh_r / committed_r
            verdict = "OK" if rel <= 1.0 + args.threshold else "REGRESSION"
            print(f"check_bench: update repair ratio {name!r}: "
                  f"committed={committed_r:.3f} fresh={fresh_r:.3f} "
                  f"rel={rel:.2f} {verdict}")
            if verdict != "OK":
                failures.append(f"update_latency.{name}.repair_ratio")

    # The parallel matrix speedup is dimensionless but needs actual cores to
    # mean anything: on a single-hardware-thread runner the best speedup is
    # ~1.0 by construction, and differing core counts aren't comparable
    # either. Gate only when both snapshots saw the same multi-core width.
    fresh_threads = parallel_threads(fresh)
    committed_threads = parallel_threads(committed)
    fresh_par = lookup(fresh, ("parallel", "matrix_speedup_best"))
    committed_par = lookup(committed, ("parallel", "matrix_speedup_best"))
    if fresh_par is None or committed_par is None or committed_par <= 0:
        print("check_bench: parallel matrix speedup: missing in a snapshot, "
              "skipped")
    elif fresh_threads == 1 or committed_threads == 1:
        print(f"check_bench: parallel matrix speedup: SKIP — a snapshot was "
              f"recorded on a single-hardware-thread runner "
              f"(fresh={fresh_threads!r}, committed={committed_threads!r}); "
              f"no parallelism to gate")
    elif fresh_threads != committed_threads:
        print(f"check_bench: parallel matrix speedup: SKIP — hardware "
              f"thread counts differ (fresh={fresh_threads!r}, "
              f"committed={committed_threads!r}); speedups not comparable")
    else:
        rel = fresh_par / committed_par
        verdict = "OK" if rel >= 1.0 - args.threshold else "REGRESSION"
        print(f"check_bench: parallel matrix speedup: "
              f"committed={committed_par:.2f}x fresh={fresh_par:.2f}x "
              f"rel={rel:.2f} {verdict}")
        if verdict != "OK":
            failures.append("parallel matrix speedup")

    # Fourth CPU-independent gate: the large_graph section's cold-open
    # speedup. Both opens run back to back on the same machine and file, so
    # the ratio survives runner changes; it gates against a hard floor (the
    # mmap open must stay an order of magnitude ahead of the heap
    # deserialize) and against the committed ratio. Loudly skipped — never
    # failed — when the section is missing on either side.
    fresh_lg = fresh.get("large_graph")
    committed_lg = committed.get("large_graph")
    fresh_open = lookup(fresh_lg if isinstance(fresh_lg, dict) else {},
                        ("open_speedup",))
    committed_open = lookup(
        committed_lg if isinstance(committed_lg, dict) else {},
        ("open_speedup",))
    if not isinstance(fresh_lg, dict) or not isinstance(committed_lg, dict):
        missing_in = "fresh" if not isinstance(fresh_lg, dict) else "committed"
        print(f"check_bench: large_graph section: not in the {missing_in} "
              f"snapshot, skipped")
    elif fresh_open is None or committed_open is None or committed_open <= 0:
        print("check_bench: large_graph open speedup: missing in a snapshot, "
              "skipped")
    else:
        rel = fresh_open / committed_open
        verdict = "OK"
        if fresh_open < OPEN_SPEEDUP_FLOOR:
            verdict = f"BELOW FLOOR ({OPEN_SPEEDUP_FLOOR:.0f}x)"
        elif rel < 1.0 - args.threshold:
            verdict = "REGRESSION"
        print(f"check_bench: large_graph open speedup: "
              f"committed={committed_open:.1f}x fresh={fresh_open:.1f}x "
              f"rel={rel:.2f} {verdict}")
        if verdict != "OK":
            failures.append("large_graph.open_speedup")

    fresh_sl = fresh.get("server_load")
    committed_sl = committed.get("server_load")

    # Absolute nanosecond timings are only comparable on the machine that
    # recorded the snapshot. CPU model alone is a weak proxy (hypervisors
    # report generic strings like "Intel(R) Xeon(R) Processor @ 2.10GHz" on
    # very different hosts), so the host name must match too. They must
    # also have been measured through the same API layer (see api_tag).
    fresh_machine = (fresh.get("cpu"), fresh.get("host"))
    committed_machine = (committed.get("cpu"), committed.get("host"))
    skip_reason = None
    if fresh_machine != committed_machine or None in fresh_machine:
        skip_reason = (f"machine mismatch (fresh={fresh_machine!r}, "
                       f"committed={committed_machine!r})")
    elif api_tag(fresh) != api_tag(committed):
        skip_reason = (f"API mismatch (fresh={api_tag(fresh)!r}, "
                       f"committed={api_tag(committed)!r})")
    if skip_reason is not None:
        print(f"check_bench: absolute timings SKIPPED — {skip_reason}; "
              f"only the speedup-ratio gate applies on this runner")
        if failures:
            print("check_bench: FAILED — " + ", ".join(failures))
            return 1
        return 0

    for name, path in GATED_METRICS:
        fresh_v = lookup(fresh, path)
        committed_v = lookup(committed, path)
        if fresh_v is None or committed_v is None or committed_v <= 0:
            print(f"check_bench: {name}: missing in a snapshot, skipped")
            continue
        ratio = fresh_v / committed_v
        verdict = "OK" if ratio <= 1.0 + args.threshold else "REGRESSION"
        print(f"check_bench: {name}: committed={committed_v:.2f} "
              f"fresh={fresh_v:.2f} ratio={ratio:.2f} {verdict}")
        if verdict != "OK":
            failures.append(name)

    # Per-dataset sections of the multi-dataset trajectory. Datasets are
    # append-only: one present on only one side (an old snapshot predating a
    # new fixture, or a retired fixture) is noted and skipped, never failed.
    fresh_ds = fresh.get("datasets")
    committed_ds = committed.get("datasets")
    fresh_ds = fresh_ds if isinstance(fresh_ds, dict) else {}
    committed_ds = committed_ds if isinstance(committed_ds, dict) else {}
    for name in sorted(set(fresh_ds) | set(committed_ds)):
        if name not in fresh_ds or name not in committed_ds:
            missing_in = "fresh" if name not in fresh_ds else "committed"
            print(f"check_bench: dataset {name!r}: not in the {missing_in} "
                  f"snapshot, skipped")
            continue
        for metric in ("ns_per_query", "ns_per_batch_target"):
            fresh_v = lookup(fresh_ds[name], (metric,))
            committed_v = lookup(committed_ds[name], (metric,))
            if fresh_v is None or committed_v is None or committed_v <= 0:
                print(f"check_bench: dataset {name!r} {metric}: missing in a "
                      f"snapshot, skipped")
                continue
            ratio = fresh_v / committed_v
            verdict = "OK" if ratio <= 1.0 + args.threshold else "REGRESSION"
            print(f"check_bench: dataset {name!r} {metric}: "
                  f"committed={committed_v:.2f} fresh={fresh_v:.2f} "
                  f"ratio={ratio:.2f} {verdict}")
            if verdict != "OK":
                failures.append(f"{name}.{metric}")

    # The directed section's absolute timings, gated exactly like a dataset
    # section: machine-matched, skipped (never failed) when the section is
    # missing on either side.
    fresh_dir = fresh.get("directed")
    committed_dir = committed.get("directed")
    if isinstance(fresh_dir, dict) and isinstance(committed_dir, dict):
        for config in ("contracted", "uncontracted"):
            fresh_v = lookup(fresh_dir, (config, "ns_per_query"))
            committed_v = lookup(committed_dir, (config, "ns_per_query"))
            if fresh_v is None or committed_v is None or committed_v <= 0:
                print(f"check_bench: directed {config} ns_per_query: missing "
                      f"in a snapshot, skipped")
                continue
            ratio = fresh_v / committed_v
            verdict = "OK" if ratio <= 1.0 + args.threshold else "REGRESSION"
            print(f"check_bench: directed {config} ns_per_query: "
                  f"committed={committed_v:.2f} fresh={fresh_v:.2f} "
                  f"ratio={ratio:.2f} {verdict}")
            if verdict != "OK":
                failures.append(f"directed.{config}.ns_per_query")
    else:
        missing_in = "fresh" if not isinstance(fresh_dir, dict) \
            else "committed"
        print(f"check_bench: directed section: not in the {missing_in} "
              f"snapshot, skipped")

    # The route-unpacking section: ns per unpacked edge for both flavours,
    # machine-matched like every other absolute timing, skipped (never
    # failed) when the section is missing on either side. A whole route on
    # grid48 is only ~2-4 us, so even the bench's best-of-3 shows ~±15%
    # run-to-run jitter on a shared box — the route gate therefore uses a
    # 60% threshold (a real regression, e.g. losing the hint walk to the
    # Dijkstra fallback, is ~100x, not 1.6x).
    route_threshold = max(args.threshold, 0.60)
    fresh_route = fresh.get("route")
    committed_route = committed.get("route")
    if isinstance(fresh_route, dict) and isinstance(committed_route, dict):
        for flavour in ("undirected", "directed"):
            for metric in ("ns_per_edge", "ns_per_route"):
                fresh_v = lookup(fresh_route, (flavour, metric))
                committed_v = lookup(committed_route, (flavour, metric))
                if fresh_v is None or committed_v is None or committed_v <= 0:
                    print(f"check_bench: route {flavour} {metric}: missing "
                          f"in a snapshot, skipped")
                    continue
                ratio = fresh_v / committed_v
                verdict = ("OK" if ratio <= 1.0 + route_threshold
                           else "REGRESSION")
                print(f"check_bench: route {flavour} {metric}: "
                      f"committed={committed_v:.2f} fresh={fresh_v:.2f} "
                      f"ratio={ratio:.2f} {verdict}")
                if verdict != "OK":
                    failures.append(f"route.{flavour}.{metric}")
    else:
        missing_in = "fresh" if not isinstance(fresh_route, dict) \
            else "committed"
        print(f"check_bench: route section: not in the {missing_in} "
              f"snapshot, skipped")

    # The large_graph section's absolute timings (the speedup ratio gated
    # above, machine-independently). Cold opens are a few milliseconds and
    # the point queries run over a mapped index, so both jitter more than
    # the steady-state microbenches — gate at the route section's relaxed
    # threshold. Skipped, never failed, when the section is missing
    # on either side.
    if isinstance(fresh_lg, dict) and isinstance(committed_lg, dict):
        for metric in ("cold_open_heap_ms", "cold_open_mmap_ms",
                       "mono_query_ns", "sharded_query_ns"):
            fresh_v = lookup(fresh_lg, (metric,))
            committed_v = lookup(committed_lg, (metric,))
            if fresh_v is None or committed_v is None or committed_v <= 0:
                print(f"check_bench: large_graph {metric}: missing in a "
                      f"snapshot, skipped")
                continue
            ratio = fresh_v / committed_v
            verdict = ("OK" if ratio <= 1.0 + route_threshold
                       else "REGRESSION")
            print(f"check_bench: large_graph {metric}: "
                  f"committed={committed_v:.2f} fresh={fresh_v:.2f} "
                  f"ratio={ratio:.2f} {verdict}")
            if verdict != "OK":
                failures.append(f"large_graph.{metric}")
    else:
        missing_in = "fresh" if not isinstance(fresh_lg, dict) \
            else "committed"
        print(f"check_bench: large_graph section: not in the {missing_in} "
              f"snapshot, skipped")

    # The server_load section's absolute numbers. End-to-end TCP serving
    # throughput and tail latency jitter like the route section does on a
    # shared box, so both directions gate at the relaxed threshold. qps
    # metrics are higher-is-better; the latency/wall-clock ones
    # lower-is-better.
    if isinstance(fresh_sl, dict) and isinstance(committed_sl, dict):
        for metric, lower_is_better in (
                ("qps_coalesced", False), ("batch_qps", False),
                ("burst_p50_us", True), ("burst_p99_us", True),
                ("matrix_ms", True),
                ("stream_matrix_ms", True)):
            fresh_v = lookup(fresh_sl, (metric,))
            committed_v = lookup(committed_sl, (metric,))
            if fresh_v is None or committed_v is None or committed_v <= 0:
                print(f"check_bench: server_load {metric}: missing in a "
                      f"snapshot, skipped")
                continue
            ratio = fresh_v / committed_v
            if lower_is_better:
                ok = ratio <= 1.0 + route_threshold
            else:
                ok = ratio >= 1.0 - route_threshold
            verdict = "OK" if ok else "REGRESSION"
            print(f"check_bench: server_load {metric}: "
                  f"committed={committed_v:.2f} fresh={fresh_v:.2f} "
                  f"ratio={ratio:.2f} {verdict}")
            if verdict != "OK":
                failures.append(f"server_load.{metric}")
    else:
        missing_in = "fresh" if not isinstance(fresh_sl, dict) \
            else "committed"
        print(f"check_bench: server_load section: not in the {missing_in} "
              f"snapshot, skipped")

    if failures:
        print(f"check_bench: FAILED — >{args.threshold:.0%} regression in: "
              + ", ".join(failures))
        return 1
    print("check_bench: all gated metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
