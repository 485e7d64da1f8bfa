#!/usr/bin/env python3
"""One run of the repo benchmark.

    python3 avbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Builds the library, avserved and the
avbench binary from source into .bench_build/ (Release), generates the
workload's seeded inputs in a separate process, then measures. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric with
its unit and sample count, the output hashes and the test environment.
The exit code is non-zero when the build fails, an output check fails or
the run does not finish. See avbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("lake-build", "lake-build-spill", "rule-train", "validate-serve")
# Every run must end within this many seconds (the first build excepted).
RUN_DEADLINE_S = 160
BUILD_DEADLINE_S = 880

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures once, then builds the benchmark's targets (a no-op when
    nothing changed). Returns the build directory or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"avbench: {ROOT} holds no source tree to build")
        return None
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    cmds = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cmds.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(BUILD), "--target", "avbench",
                 "avserved", "-j", str(nproc())])
    with open(logfile, "w") as out:
        for cmd in cmds:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_DEADLINE_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"avbench: {' '.join(cmd)}: {e}")
                return None
            if rc != 0:
                log(f"avbench: build failed, see {logfile}:")
                log(logfile.read_text()[-4000:])
                return None
    return BUILD


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def tree_digest():
    """SHA-256 over the files the measured binaries are built from, so a
    result names the exact tree it measured, git checkout or not."""
    h = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for d in ("src", "examples", BENCH_DIR.name):
        paths += sorted(p for p in (ROOT / d).rglob("*") if p.is_file())
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def git_rev():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--", "src", "examples", "CMakeLists.txt",
                                BENCH_DIR.name],
                               capture_output=True, text=True, timeout=10).stdout.strip()
        return rev + ("+uncommitted" if dirty else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def environment():
    cpu, flags = "unknown", ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and cpu == "unknown":
                cpu = line.split(":", 1)[1].strip()
            elif line.startswith("flags") and not flags:
                flags = line.split(":", 1)[1].strip()
    except OSError:
        pass
    simd = [f for f in flags.split() if f in ("sse2", "ssse3", "sse4_2", "avx", "avx2",
                                             "avx512f", "bmi2", "popcnt")]
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"], capture_output=True,
                                     text=True, timeout=10).stdout.splitlines()[0]
        except (OSError, subprocess.TimeoutExpired, IndexError):
            pass
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "cpu_simd_flags": " ".join(simd),
        "AV_SIMD": os.environ.get("AV_SIMD", "unset (runtime dispatch)"),
        "compiler": version or compiler,
        "build_type": build_type,
        "cxx_flags": cmake_cache("CMAKE_CXX_FLAGS_" + build_type.upper()),
        "git_rev": git_rev(),
        "tree_sha256": tree_digest(),
    }


def run_child(cmd, deadline):
    """Runs `cmd` in its own process group (so avserved dies with it),
    relaying stdout. Returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    lines = []
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        lines = out.splitlines()
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"avbench: {cmd[1]} did not finish in time")
        return 124, lines
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out-seed", type=int, default=None,
                    help="seed reserved for checking claims (recorded only)")
    args = ap.parse_args()

    build_dir = build()
    if build_dir is None:
        return 2
    binary = build_dir / "avbench"
    avserved = build_dir / "repo" / "avserved"
    if not binary.is_file() or not avserved.is_file():
        log("avbench: build produced no avbench/avserved binary")
        return 2
    # A run that had to compile gets the full window after the build.
    deadline = time.monotonic() + RUN_DEADLINE_S

    env = environment()
    env["held_out_seed"] = args.held_out_seed
    work = BUILD / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work), "--threads", str(env["nproc"])]
    try:
        rc, lines = run_child([str(binary), "prep"] + common, deadline)
        for line in lines:
            print(line)
        if rc != 0:
            log(f"avbench: input generation failed (exit {rc})")
            return 3
        rc, lines = run_child(
            [str(binary), "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--golden", str(BUILD / "golden"), "--avserved", str(avserved),
             "--trace-dir", str(BUILD / "traces")], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        log(f"avbench: the run printed no result (exit {rc})")
        return rc or 4
    for line in lines:
        if line.startswith("tokenizer_arm "):
            env["tokenizer_arm"] = line.split()[1]
    print("env " + json.dumps(env, sort_keys=True))
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace, "env": env,
                    "result": result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
