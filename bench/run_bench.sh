#!/bin/sh
# Runs the perf-tracking benches and assembles BENCH_micro.json so future
# PRs have a trajectory to compare against.
#
# Usage: bench/run_bench.sh [build_dir] [out_json]
#   build_dir  directory containing bench_micro / bench_offline_indexing
#              (default: build)
#   out_json   output path (default: BENCH_micro.json in the repo root)
#
# Emits: {machine, git_rev, env: {nproc, build flags},
#         micro: <google-benchmark json, key subset>,
#         offline_indexing: <per-tau wall-clock + patterns/sec>}
set -eu

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
TMP_MICRO="$(mktemp)"
TMP_OFF150="$(mktemp)"
TMP_OFF800="$(mktemp)"
trap 'rm -f "$TMP_MICRO" "$TMP_OFF150" "$TMP_OFF800"' EXIT

FILTER='BM_MatchColumnScalar|BM_MatchColumnBatched|BM_Match$|BM_Tokenize$|BM_TokenizeInto|BM_TokenCount|BM_TokenizeMixedColumn|BM_TokenizedColumnBuild|BM_PatternKey|BM_IndexLookup|BM_IndexLookupByKey|BM_IndexColumn|BM_BuildIndexSmall|BM_BuildIndexSpill|BM_TrainFmdv$|BM_ValidateColumn|BM_ValidateColumnView|BM_ServiceValidateThroughput|BM_ServiceValidateAll|BM_ServiceValidateNLoop|BM_ServiceValidateStreamLoop|BM_ServerRoundTrip|BM_ServerSaturation|BM_BuildIndexJsonl|BM_BuildIndexAvcol'

"$BUILD_DIR/bench_micro" \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time=0.2 \
  --benchmark_format=json >"$TMP_MICRO"

"$BUILD_DIR/bench_offline_indexing" --columns=150 --seed=7 \
  --json="$TMP_OFF150" >/dev/null
"$BUILD_DIR/bench_offline_indexing" --columns=800 --seed=7 \
  --json="$TMP_OFF800" >/dev/null

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
NPROC="$(nproc)"

python3 - "$TMP_MICRO" "$TMP_OFF150" "$TMP_OFF800" "$OUT" "$GIT_REV" \
  "$NPROC" "$BUILD_DIR/CMakeCache.txt" <<'EOF'
import json, platform, sys

(micro_path, off150_path, off800_path, out_path, git_rev, nproc,
 cache_path) = sys.argv[1:8]
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
    "build_type": build_type,
    "cxx_compiler": cache.get("CMAKE_CXX_COMPILER"),
    "cxx_flags": " ".join(
        f for f in (cache.get("CMAKE_CXX_FLAGS", ""),
                    cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""))
        if f),
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

out = {
    "git_rev": git_rev,
    "machine": platform.platform(),
    "env": env,
    "micro": benches,
    "offline_indexing_150col": off150,
    "offline_indexing_800col": off800,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
EOF
