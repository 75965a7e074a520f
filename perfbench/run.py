#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) under .bench_build/
(or $CARGO_TARGET_DIR when set); later calls rebuild only what changed.
Build output goes to stderr. The benchmark binary prints progress lines, a
details line, a metadata line, and as its last stdout line the result object
{"correct", "attempted", "failed", "metrics"}; this script passes it
through with the binary's exit code (1 when a correctness check failed).

--self-test runs every workload at tiny scale, traced and untraced, and
checks that each emits exactly the metrics of BENCHMARK.json and its own
DETAILS, each with a unit, plus a metadata line; then runs each workload
with a deliberately perturbed output and checks that its correctness check
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))

# Every workload emits every metric of BENCHMARK.json: the end-to-end ones
# with --trace 0, the per-layer ones with --trace 1, each measured on its
# own scenario (perfbench/README.md says how). Figures only one workload
# has go on the "details" line before the result, never in the result.
E2E = ["setup_s", "peak_rss_mb", "synth_tables_per_s", "op_p50_ms"]
LAYER = (["extract.wall_s", "extract.cpu_s", "extract.index_s",
          "extract.candidates", "block.wall_s", "block.pairs", "block.keys",
          "score.wall_s", "score.cpu_s", "score.sys_s", "score.match_calls",
          "score.charmask_rejects", "score.kernel_calls",
          "score.mask_cache_hit_ratio", "score.edge_yield",
          "partition.wall_s", "partition.components", "resolve.wall_s",
          "resolve.mappings"]
         + [s + ".wall_s.t1" for s in
            ["extract", "block", "score", "partition", "resolve"]]
         + ["synth.scaling", "error_rate", "obs.trace_overhead_frac"])

# Details per workload: (untraced and traced, traced only).
DETAILS = {
    "web_cold": (["quality_f1"], []),
    "churn_sharded": (["append_p50_ms", "remove_p50_ms", "replace_p50_ms"],
                      ["mutate.append.cpu_s", "mutate.remove.cpu_s",
                       "mutate.replace.cpu_s", "mutate.delta_pairs",
                       "mutate.dirty_ratio", "mutate.margin_skip_ratio",
                       "mutate.full_rebuilds"]),
    "serve_rw": (["correct_p50_us", "serve_max_rps", "publish_p50_ms"],
                 ["lookup_p50_us", "lookup_p99_us", "correct_p99_us",
                  "fill_p99_us", "join_p99_us", "persist.save_s",
                  "persist.open_s", "persist.snapshot_bytes"]
                 + [f"apps.{t}_p{q}_us"
                    for t in ["lookup", "correct", "fill", "join"]
                    for q in ["50", "99"]]
                 + ["apps.publish_ms"]
                 + [f"net.server_{t}_p{q}_us"
                    for t in ["lookup", "correct", "fill", "join"]
                    for q in ["50", "99"]]
                 + ["net.transport_us", "net.bytes_per_req",
                    "net.generator_lag_ms"]),
}
WORKLOADS = list(DETAILS)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return os.path.join(out, "perfbench")


def source_id():
    """Git commit when available, else a digest of the library sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return "git:" + sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["src", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work"),
           "--source-id", source_id(), *extra]
    if capture:
        return subprocess.run(cmd, capture_output=True, text=True)
    return subprocess.run(cmd)


def json_line(lines, key):
    """The first stdout line that is a JSON object keyed `key`, or None."""
    for line in lines:
        if line.startswith('{"' + key + '"'):
            return json.loads(line)[key]
    return None


def check_units(where, metrics, declared, problems):
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"] or not m["unit"]:
            problems.append(f"{where}: {name} lacks a unit: {m}")
        elif name in declared and m["unit"] != declared[name]:
            problems.append(f"{where}: {name} unit {m['unit']} != "
                            f"BENCHMARK.json {declared[name]}")


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOADS}")
    for trace, want in ((0, set(E2E)), (1, set(LAYER))):
        if set(declared[trace]) != want:
            problems.append(f"trace={trace}: BENCHMARK.json declares "
                            f"{sorted(declared[trace])}, run.py expects "
                            f"{sorted(want)}")
        for w in WORKLOADS:
            where = f"{w} trace={trace}"
            p = run(binary, w, 1, 3, trace, ["--tiny"], capture=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append(f"{where}: exit {p.returncode}\n{p.stderr}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']}"
                                f" attempted={result['attempted']}")
            got = result["metrics"]
            if set(got) != want:
                problems.append(f"{where}: missing {sorted(want - set(got))}, "
                                f"extra {sorted(set(got) - want)}")
            check_units(where, got, declared[trace], problems)
            both, traced_only = DETAILS[w]
            want_details = set(both + (traced_only if trace else []))
            details = json_line(lines[:-1], "details") or {}
            if set(details) != want_details:
                problems.append(f"{where}: details missing "
                                f"{sorted(want_details - set(details))}, extra "
                                f"{sorted(set(details) - want_details)}")
            check_units(where + " details", details, {}, problems)
            if not json_line(lines[:-1], "metadata"):
                problems.append(f"{where}: no metadata line")
            log(f"self-test {where}: {len(got)} metrics, {len(details)} "
                f"details ok")
    for w in WORKLOADS:
        p = run(binary, w, 1, 3, 0, ["--tiny", "--perturb"], capture=True)
        lines = p.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if p.returncode == 0 or result.get("correct") is not False:
            problems.append(f"{w}: perturbed output passed the correctness "
                            f"check (exit {p.returncode})")
        else:
            log(f"self-test {w}: perturbed output tripped the check")
    for problem in problems:
        log("SELF-TEST FAILURE: " + problem)
    log("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(HERE, "..", "src", "synth", "session.h")):
        log("library sources (src/) not found next to perfbench/; "
            "run from a full checkout")
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 2
    if args.self_test:
        return self_test(binary)
    return run(binary, args.workload, args.seed, args.seconds,
               args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
