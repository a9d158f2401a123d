#!/usr/bin/env python3
"""Builds and runs the daisy end-to-end benchmark.

Run from the root of a daisy checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: polybench_variants, cloudsc_variants.

Compiles perfbench/ (the daisy library from src/ plus daisy_perfbench)
with CMake into .bench_build/perfbench, then runs daisy_perfbench with
the given arguments. It prints a report and, as its last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
result, with the host fingerprint and one row per program, is written to
.bench_build/results/<workload>-seed<n>-trace<t>.json; a traced run also
writes the Chrome trace next to it, which this script checks parses as
JSON. Exits non-zero without a result line when the sources are missing
or the build fails.
"""

import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RESULTS = os.path.join(OUT, "results")
BINARY = os.path.join(BUILD, "daisy_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and rebuilds incrementally; serialized by a lock."""
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    with open(os.path.join(OUT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "--target", "daisy_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))


def source_digest():
    """SHA-256 over the sources the binary is built from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as data:
                    digest.update(data.read())
    with open(os.path.join(ROOT, "bench", "BenchCommon.h"), "rb") as data:
        digest.update(data.read())
    return digest.hexdigest()[:16]


def commit():
    """The checkout's commit, or "unknown" outside a git work tree; git
    never looks above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_metrics(result, traced):
    """The printed metric names and units must be BENCHMARK.json's."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as data:
        spec = json.load(data)["per_layer" if traced else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(expected.items())))


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main():
    args = sys.argv[1:]
    for required in ("src/api/Engine.h", "bench/BenchCommon.h"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("not a daisy checkout: %s is missing" % required)
    build()
    run = subprocess.run([BINARY] + args +
                         ["--out-dir", RESULTS, "--commit", commit(),
                          "--source-digest", source_digest()],
                         capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(run.stdout)
        fail("the benchmark exited with %d" % run.returncode)
    status = run.returncode
    check_metrics(json.loads(lines[-1]), flag(args, "--trace") == "1")
    if flag(args, "--trace") == "1":
        trace = os.path.join(RESULTS, "%s-seed%s-trace1.trace.json" %
                             (flag(args, "--workload"), flag(args, "--seed")))
        try:
            with open(trace) as data:
                events = json.load(data)["traceEvents"]
            lines.insert(-1, "  trace JSON valid: %d events" % len(events))
        except (OSError, ValueError, KeyError) as error:
            result = json.loads(lines[-1])
            result["correct"] = False
            lines[-1] = json.dumps(result)
            lines.insert(-1, "  FAILED: invalid Chrome trace %s: %s" %
                         (trace, error))
            status = 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(status)


if __name__ == "__main__":
    main()
