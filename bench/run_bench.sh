#!/bin/sh
# Runs the perf-tracking benches and assembles BENCH_micro.json so future
# PRs have a trajectory to compare against.
#
# Usage: bench/run_bench.sh [build_dir] [out_json]
#   build_dir  directory containing bench_micro / bench_offline_indexing
#              (default: build)
#   out_json   output path (default: BENCH_micro.json in the repo root)
#
# Emits: {machine, git_rev, env: {nproc, tokenizer_arm, build flags},
#         micro: <google-benchmark json, key subset>,
#         offline_indexing: <per-tau wall-clock + patterns/sec>,
#         build_index_simd: <interleaved dispatch-vs-SWAR medians>}
#
# The micro section includes the per-arm tokenizer benches
# (BM_TokenizeMixedColumn_<arm> / BM_TokenCountMixedColumn_<arm>) for every
# dispatch arm the machine can run. The build_index_simd section judges the
# SIMD layer end-to-end the way docs/BENCHMARKING.md prescribes: 3
# interleaved A/B pairs of BM_BuildIndexSmall (resolver's best arm vs
# AV_SIMD=swar), medians of each, so layout/thermal drift hits both sides.
set -eu

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
TMP_MICRO="$(mktemp)"
TMP_OFF150="$(mktemp)"
TMP_OFF800="$(mktemp)"
TMP_SIMD="$(mktemp)"
trap 'rm -f "$TMP_MICRO" "$TMP_OFF150" "$TMP_OFF800" "$TMP_SIMD"' EXIT

FILTER='BM_MatchColumnScalar|BM_MatchColumnBatched|BM_Match$|BM_Tokenize$|BM_TokenizeInto|BM_TokenCount|BM_TokenizeMixedColumn|BM_TokenizedColumnBuild|BM_PatternKey|BM_IndexLookup|BM_IndexLookupByKey|BM_IndexColumn|BM_BuildIndexSmall|BM_BuildIndexSpill|BM_TrainFmdv$|BM_ValidateColumn|BM_ValidateColumnView|BM_ServiceValidateThroughput|BM_ServiceValidateAll|BM_ServiceValidateNLoop|BM_ServiceValidateStreamLoop|BM_ServerRoundTrip|BM_ServerSaturation|BM_BuildIndexJsonl|BM_BuildIndexAvcol'

"$BUILD_DIR/bench_micro" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json >"$TMP_MICRO"

"$BUILD_DIR/bench_offline_indexing" --columns=150 --seed=7 \
  --json="$TMP_OFF150" >/dev/null
"$BUILD_DIR/bench_offline_indexing" --columns=800 --seed=7 \
  --json="$TMP_OFF800" >/dev/null

# Interleaved A/B: the whole-job index build under the dispatch resolver's
# pick vs the SWAR baseline, alternating so slow drift cancels. One
# "arm real_time_ns" line per run lands in TMP_SIMD.
: >"$TMP_SIMD"
for rep in 1 2 3; do
  for side in dispatch swar; do
    if [ "$side" = swar ]; then
      AV_SIMD=swar "$BUILD_DIR/bench_micro" \
        --benchmark_filter='BM_BuildIndexSmall' \
        --benchmark_min_time=0.2 --benchmark_format=json
    else
      "$BUILD_DIR/bench_micro" \
        --benchmark_filter='BM_BuildIndexSmall' \
        --benchmark_min_time=0.2 --benchmark_format=json
    fi | python3 -c 'import json,sys; b=json.load(sys.stdin)["benchmarks"][0]; print(sys.argv[1], b["real_time"])' "$side" >>"$TMP_SIMD"
  done
done

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
NPROC="$(nproc)"

python3 - "$TMP_MICRO" "$TMP_OFF150" "$TMP_OFF800" "$TMP_SIMD" "$OUT" "$GIT_REV" \
  "$NPROC" "$BUILD_DIR/CMakeCache.txt" <<'EOF'
import json, os, platform, statistics, sys

(micro_path, off150_path, off800_path, simd_path, out_path, git_rev, nproc,
 cache_path) = sys.argv[1:9]
with open(micro_path) as f:
    micro = json.load(f)

# Build flags from the build directory's CMake cache (CMakeLists.txt makes
# an empty CMAKE_BUILD_TYPE mean Release).
cache = {}
try:
    with open(cache_path) as f:
        for line in f:
            name, sep, value = line.rstrip("\n").partition("=")
            if sep and ":" in name and not line.startswith(("#", "//")):
                cache[name.split(":")[0]] = value
except OSError:
    pass
build_type = cache.get("CMAKE_BUILD_TYPE") or "Release"
env = {
    "nproc": int(nproc),
    "tokenizer_arm": micro.get("context", {}).get("tokenizer_arm"),
    "AV_SIMD_env": os.environ.get("AV_SIMD", "unset (runtime dispatch)"),
    "build_type": build_type,
    "cxx_compiler": cache.get("CMAKE_CXX_COMPILER"),
    "cxx_flags": " ".join(
        f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                    cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
        if f),
    "AV_SIMD_cmake": cache.get("AV_SIMD"),
}
with open(off150_path) as f:
    off150 = json.load(f)
with open(off800_path) as f:
    off800 = json.load(f)

benches = {
    b["name"]: {
        "real_time_ns": b["real_time"],
        **({"items_per_second": b["items_per_second"]}
           if "items_per_second" in b else {}),
    }
    for b in micro.get("benchmarks", [])
}

simd_runs = {}
with open(simd_path) as f:
    for line in f:
        side, ns = line.split()
        simd_runs.setdefault(side, []).append(float(ns))
simd = {}
if simd_runs:
    med = {side: statistics.median(v) for side, v in simd_runs.items()}
    simd = {
        "bench": "BM_BuildIndexSmall (interleaved medians of 3 A/B pairs)",
        "dispatch_median_ns": med.get("dispatch"),
        "swar_median_ns": med.get("swar"),
        "dispatch_speedup": (med["swar"] / med["dispatch"]
                             if med.get("dispatch") and med.get("swar")
                             else None),
    }

out = {
    "git_rev": git_rev,
    "machine": platform.platform(),
    "env": env,
    "micro": benches,
    "build_index_simd": simd,
    "offline_indexing_150col": off150,
    "offline_indexing_800col": off800,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
EOF
