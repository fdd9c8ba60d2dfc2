#!/usr/bin/env python3
"""AdaWave benchmark entry point.

Run from the root of a checkout of the repository:

    python3 adabench/run.py --workload derm33d_60k --seed 1 --seconds 35 --trace 0

Builds the benchmark (adabench/, an sbt project that compiles the program
under test from ../src/main/scala) when its sources changed, then runs one
JVM that measures the workload. Human-readable notes go to stderr. The last
two lines of stdout are the run's settings and result, each one JSON object;
the last has the keys correct, attempted, failed and metrics.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
PROGRAM = os.path.join(ROOT, "src", "main", "scala")

# A run must end within 180 s, or 900 s when it builds first.
RUN_LIMIT_S = 170
BUILD_RUN_LIMIT_S = 880
HEAP = "4g"
MAX_CORES = 2

def fail(msg):
    print(f"adabench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Digest of everything the build compiles, to skip rebuilding."""
    h = hashlib.sha256()
    roots = [PROGRAM, os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build saw the same sources; returns
    the classpath file and whether a build ran."""
    stamp = os.path.join(TARGET, "build.digest")
    classpath = os.path.join(TARGET, "classpath.txt")
    digest = source_digest()
    if os.path.exists(classpath) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == digest:
                return classpath, False
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    print("adabench: building", file=sys.stderr)
    proc = subprocess.run(
        [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}", "compile", "writeClasspath"],
        cwd=HERE, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr, stderr=sys.stderr,
        timeout=BUILD_RUN_LIMIT_S - 60)
    if proc.returncode != 0 or not os.path.exists(classpath):
        fail(f"build failed (sbt exit {proc.returncode})")
    with open(stamp, "w") as fh:
        fh.write(digest)
    return classpath, True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    if not os.path.isdir(os.path.join(PROGRAM, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM, ROOT)}")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")
    expected = expected_metrics(args.trace == 1)
    classpath_file, built = build()
    with open(classpath_file) as fh:
        classpath = fh.read().strip()

    work = os.path.join(TARGET, "run")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    out = os.path.join(work, f"result-{args.workload}-{args.seed}-{args.trace}.json")
    if os.path.exists(out):
        os.remove(out)
    nproc = len(os.sched_getaffinity(0))
    cores = max(1, min(MAX_CORES, nproc))
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
           f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}", "-Dspark.ui.enabled=false",
           "-cp", classpath, "adabench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cores", str(cores), "--out", out, "--work-dir", work]
    limit = (BUILD_RUN_LIMIT_S if built else RUN_LIMIT_S) - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=limit)
    except subprocess.TimeoutExpired:
        fail("benchmark JVM timed out")
    if proc.returncode != 0 or not os.path.exists(out):
        fail(f"benchmark JVM failed (exit {proc.returncode})")
    with open(out) as fh:
        info, result = [json.loads(line) for line in fh.read().splitlines()]

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, expected {sorted(expected)}")
    info["settings"]["nproc"] = nproc
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
